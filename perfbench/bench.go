package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// referenceFile is digests.json: every job's digest at the default seed.
type referenceFile struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

//go:embed digests.json
var referenceJSON []byte

func loadReference() (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("digests.json: %w", err)
	}
	return ref, nil
}

// bench runs one workload repeatedly and checks every job of every
// iteration.
type bench struct {
	wl   workload
	opts options
	log  io.Writer

	ref     referenceFile
	digests map[string]string // job → digest of the first iteration

	attempted int
	failed    int
	reported  int // problems printed so far
}

// iteration is one execution of every job of the workload.
type iteration struct {
	jobs    []job
	runs    []*jobRun
	wall    time.Duration
	peakRSS uint64
	mem     runtime.MemStats // allocation and GC deltas over the iteration
}

// iterate runs the workload once: single-machine jobs over the job
// workers, topology jobs one at a time.
func (b *bench) iterate(ctx context.Context, tr *tracer) iteration {
	jobs := b.wl.jobs(params{seed: b.opts.seed, topoWorkers: b.opts.topoWorkers})
	workers := b.opts.workers
	if b.wl.topo {
		workers = 1
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss := startRSS()
	t0 := time.Now()
	runs := runJobs(ctx, tr, jobs, workers)
	// Collecting the iteration's garbage is part of its cost, and it keeps
	// each iteration's peak RSS to the live heap plus its own garbage:
	// without it, garbage piles up across iterations until the GC goal
	// (twice a heap holding the machines' RAM backings), so the peak would
	// grow with the number of iterations a run fits in.
	tr.do(ctx, "collect", "", func(context.Context) { runtime.GC() })
	it := iteration{jobs: jobs, runs: runs, wall: time.Since(t0), peakRSS: rss.stop()}
	runtime.ReadMemStats(&m1)
	it.mem = runtime.MemStats{
		TotalAlloc:   m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:      m1.Mallocs - m0.Mallocs,
		NumGC:        m1.NumGC - m0.NumGC,
		PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	b.check(it)
	var setup time.Duration
	for _, r := range runs {
		setup += r.setup
	}
	fmt.Fprintf(b.log, "%s: iteration: wall %.3fs, set-up %.3fs, peak RSS %.0f MB\n",
		b.wl.name, it.wall.Seconds(), setup.Seconds(), float64(it.peakRSS)/1e6)
	return it
}

// check counts attempted and failed jobs. Beyond each job's own checks, a
// job fails when its digest differs from the first iteration's, or, at the
// reference seed, from the recorded reference.
func (b *bench) check(it iteration) {
	if b.digests == nil {
		b.digests = map[string]string{}
		for _, r := range it.runs {
			if len(r.problems) == 0 {
				b.digests[r.job] = r.digest
			}
		}
	}
	for _, r := range it.runs {
		b.attempted++
		problems := r.problems
		if len(problems) == 0 {
			if first, ok := b.digests[r.job]; !ok || first != r.digest {
				problems = append(problems, fmt.Sprintf("digest %s differs from the first iteration's %q", r.digest, first))
			}
			if b.opts.record == "" && b.opts.seed == b.ref.Seed {
				if want := b.ref.Workloads[b.wl.name][r.job]; want != r.digest {
					problems = append(problems, fmt.Sprintf("digest %s, reference %q", r.digest, want))
				}
			}
		}
		if len(problems) > 0 {
			b.failed++
			for _, p := range problems {
				if b.reported < 20 {
					fmt.Fprintf(b.log, "perfbench: FAIL %s/%s: %s\n", b.wl.name, r.job, p)
					b.reported++
				}
			}
		}
	}
}

// repeat runs iterations until the budget is spent: another iteration
// starts only while the time left covers half of the last one. At least
// one iteration always runs.
func (b *bench) repeat(ctx context.Context, tr *tracer, budget time.Duration) []iteration {
	var its []iteration
	start := time.Now()
	for {
		if tr != nil {
			tr.iter = len(its)
		}
		it := b.iterate(ctx, tr)
		its = append(its, it)
		if time.Since(start)+it.wall/2 >= budget {
			return its
		}
	}
}

func (b *bench) setup() error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	b.ref = ref
	if b.opts.record == "" && b.opts.seed == ref.Seed && len(ref.Workloads[b.wl.name]) == 0 {
		return fmt.Errorf("digests.json has no reference digests for %s", b.wl.name)
	}
	return nil
}

func (b *bench) result(ms map[string]metric) report {
	return report{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
	}
}

// timed is the untraced run: the end-to-end metrics, each the median over
// the iterations.
func (b *bench) timed() (report, error) {
	if err := b.setup(); err != nil {
		return report{}, err
	}
	its := b.repeat(context.Background(), nil, seconds(b.opts.seconds))
	ms := medianMetrics(its, endToEnd)
	printTable(b.log, fmt.Sprintf("%s: %d iterations, medians", b.wl.name, len(its)), ms)
	return b.result(ms), nil
}

// traced is the traced run. Half the budget runs untraced iterations (the
// overhead baseline and the Go runtime figures), half runs traced ones under
// a labelled CPU profile (per-layer self time), then the layer micros run.
// Spans, the profile and a per-span breakdown go to the output directory.
func (b *bench) traced() (report, error) {
	if err := b.setup(); err != nil {
		return report{}, err
	}
	budget := seconds(b.opts.seconds) / 2
	plain := b.repeat(context.Background(), nil, budget)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.repeat(context.Background(), tr, budget)
	pprof.StopCPUProfile()

	tr.iter = -1
	micro, err := runMicros(context.Background(), tr)
	if err != nil {
		return report{}, err
	}

	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	byLayer, bySpan := selfTimes(p)

	ms := perLayer(plain[0])
	maps.Copy(ms, micro)
	maps.Copy(ms, medianMetrics(plain, runtimeMetrics))
	for _, l := range reportedLayers {
		ms[l+".self_s"] = metric{byLayer[l].Seconds() / float64(len(traced)), "s/iteration"}
	}
	// The process's first iteration builds its machines from an empty
	// backing pool; its set-up and peak RSS show cold-start costs the
	// medians of later iterations do not.
	var coldSetup time.Duration
	for _, r := range plain[0].runs {
		coldSetup += r.setup
	}
	ms["testbed.cold_setup_s"] = metric{coldSetup.Seconds(), "s"}
	ms["mem.cold_peak_rss_mb"] = metric{float64(plain[0].peakRSS) / 1e6, "MB"}
	untracedWall := median(values(plain, func(it iteration) float64 { return it.wall.Seconds() }))
	tracedWall := median(values(traced, func(it iteration) float64 { return it.wall.Seconds() }))
	ms["trace.overhead_pct"] = metric{(tracedWall/untracedWall - 1) * 100, "%"}

	if err := b.writeTrace(tr, prof.Bytes(), bySpan, len(traced)); err != nil {
		return report{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(b.log, "%s: %d untraced + %d traced iterations; self time per iteration by span (s):\n",
		b.wl.name, len(plain), len(traced))
	writeBreakdown(b.log, bySpan, len(traced))
	printTable(b.log, b.wl.name+": per-layer metrics", ms)
	return b.result(ms), nil
}

// writeTrace saves the spans (Chrome trace_event JSON), the raw CPU profile
// and the self-time breakdown.
func (b *bench) writeTrace(tr *tracer, prof []byte, bySpan map[string]map[string]time.Duration, iters int) error {
	if err := os.MkdirAll(b.opts.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.opts.outDir, fmt.Sprintf("%s-seed%d", b.wl.name, b.opts.seed))
	var spans bytes.Buffer
	if err := tr.writeChrome(&spans); err != nil {
		return err
	}
	var table bytes.Buffer
	writeBreakdown(&table, bySpan, iters)
	for path, data := range map[string][]byte{
		base + ".spans.json": spans.Bytes(),
		base + ".cpu.pprof":  prof,
		base + ".self.txt":   table.Bytes(),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// medianMetrics evaluates f on every iteration and takes each metric's
// median.
func medianMetrics(its []iteration, f func(iteration) map[string]metric) map[string]metric {
	all := map[string][]float64{}
	units := map[string]string{}
	for _, it := range its {
		for k, m := range f(it) {
			all[k] = append(all[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]metric{}
	for k, vs := range all {
		out[k] = metric{median(vs), units[k]}
	}
	return out
}

func values(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
