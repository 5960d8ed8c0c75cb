package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// job is one scheme's run inside a workload.
type job struct {
	name   string
	scheme testbed.Scheme
	// headline marks the jobs whose goodput the workload reports; in the
	// cluster mix that is the incast topology.
	headline bool
	// setShare, when set, counts memcached SET and total requests from
	// the job's machine snapshots.
	setShare func([]stats.Snapshot) (sets, requests float64)
	exec     func(r *jobRun) error
}

// jobRun is one execution of a job: its host timings and the simulated
// results it produced.
type jobRun struct {
	ctx context.Context
	tr  *tracer
	job string

	setup time.Duration // host time building machines
	run   time.Duration // host time inside workloads.Run*, set-up excluded

	result     any              // the workload's result struct
	snaps      []stats.Snapshot // every machine's registry after the run
	zeroed     int64            // simulated bytes zeroed by the machines' page allocators
	busy       sim.Time         // core busy time of the first machine
	gbps       float64          // goodput as the workload reports it
	cpuUsPerMB float64          // simulated CPU per MB delivered
	epochs     uint64           // sim.Cluster epochs (topology jobs)

	digest   string
	problems []string // failed checks; non-empty fails the job
}

// span runs fn inside a traced span of the given kind; spans opened by fn
// nest inside it.
func (r *jobRun) span(kind string, fn func()) {
	parent := r.ctx
	r.tr.do(parent, kind, r.job, func(ctx context.Context) {
		r.ctx = ctx
		fn()
	})
	r.ctx = parent
}

// machineJob builds one testbed machine, drives it with run, and checks it.
// Set-up is timed around testbed.NewMachine, the run around the drive call.
func machineJob(scheme testbed.Scheme, cfg testbed.MachineConfig,
	drive func(*testbed.Machine) (result any, gbps, cpuUsPerMB float64, err error)) job {
	return job{name: string(scheme), scheme: scheme, headline: true, exec: func(r *jobRun) error {
		var ma *testbed.Machine
		var err error
		r.span("build", func() {
			t0 := time.Now()
			ma, err = testbed.NewMachine(cfg)
			r.setup = time.Since(t0)
		})
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		r.span("run", func() {
			t0 := time.Now()
			r.result, r.gbps, r.cpuUsPerMB, err = drive(ma)
			r.run = time.Since(t0)
		})
		if err == nil {
			r.span("check", func() { r.inspect([]*testbed.Machine{ma}) })
		}
		r.span("teardown", ma.Close)
		return err
	}}
}

// topologyCall runs one topology workload over the given windows.
type topologyCall func(warm, dur sim.Time, inspect func([]*testbed.Machine) error) (result any, gbps float64, err error)

// topologyJob runs a topology built inside a workloads.Run* call. Its set-up
// cost is that of the same call over one lookahead window; the run time is
// the full call minus that estimate.
func topologyJob(name string, scheme testbed.Scheme, headline bool, call topologyCall, warm sim.Time) job {
	return job{name: name, scheme: scheme, headline: headline, exec: func(r *jobRun) error {
		var err error
		half := workloads.ClusterLinkLatency / 2
		r.span("build", func() {
			t0 := time.Now()
			_, _, err = call(half, half, nil)
			r.setup = time.Since(t0)
		})
		if err != nil {
			return fmt.Errorf("set-up window: %w", err)
		}
		r.span("run", func() {
			t0 := time.Now()
			r.result, r.gbps, err = call(warm, clusterWindow, func(ms []*testbed.Machine) error {
				r.span("check", func() { r.inspect(ms) })
				return nil
			})
			r.run = time.Since(t0) - r.setup
		})
		if ic, ok := r.result.(workloads.IncastResult); ok {
			r.epochs = ic.Epochs
			if r.busy > 0 && ic.Delivered > 0 {
				// Measured at the incast receiver over the whole run.
				r.cpuUsPerMB = r.busy.Seconds() * 1e6 / (float64(r.snaps[0].Counter("device/nic_rx_bytes")) / 1e6)
			}
		}
		return err
	}}
}

// inspect snapshots every machine and runs the correctness checks that hold
// on any fault-free run: DAMN's chunk audit balances, and no DMA was blocked
// or faulted, no segment landed on the wrong core, no unmap failed.
func (r *jobRun) inspect(ms []*testbed.Machine) {
	for i, ma := range ms {
		snap := ma.StatsSnapshot()
		r.snaps = append(r.snaps, snap)
		r.zeroed += ma.Mem.ZeroedBytes()
		if i == 0 {
			for _, c := range ma.Cores {
				r.busy += c.Busy()
			}
		}
		if ma.Damn != nil {
			if _, err := ma.Damn.Audit(); err != nil {
				r.problems = append(r.problems, fmt.Sprintf("machine %d: %v", i, err))
			}
		}
		r.problems = append(r.problems, counterProblems(i, snap)...)
	}
}

// mustBeZero are the counters a fault-free, attacker-free run never bumps.
var mustBeZero = []string{"iommu/blocked_dmas", "device/nic_dma_faults", "netstack/rx_wrong_core"}

func counterProblems(machine int, s stats.Snapshot) []string {
	var out []string
	for _, k := range slices.Sorted(maps.Keys(s.Counters)) {
		v := s.Counters[k]
		if v == 0 {
			continue
		}
		if strings.HasSuffix(k, "_unmap_errors") || slices.Contains(mustBeZero, k) {
			out = append(out, fmt.Sprintf("machine %d: %s = %d, want 0", machine, k, v))
		}
	}
	return out
}

// digestOf hashes a job's simulated results: the workload's result struct
// and every machine's snapshot. encoding/json writes struct fields in
// declaration order and map keys sorted, so the encoding is canonical.
func digestOf(result any, snaps []stats.Snapshot) (string, error) {
	data, err := json.Marshal(struct {
		Result    any              `json:"result"`
		Snapshots []stats.Snapshot `json:"snapshots"`
	}{result, snaps})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// runJob executes one job and fills in its digest; any error or failed
// check lands in problems.
func runJob(ctx context.Context, tr *tracer, j job) *jobRun {
	r := &jobRun{tr: tr, job: j.name}
	tr.do(ctx, "job", j.name, func(ctx context.Context) {
		r.ctx = ctx
		if err := j.exec(r); err != nil {
			r.problems = append(r.problems, err.Error())
			return
		}
		d, err := digestOf(r.result, r.snaps)
		if err != nil {
			r.problems = append(r.problems, err.Error())
			return
		}
		r.digest = d
	})
	return r
}

// runJobs executes jobs over the given number of host workers and returns
// their runs in declaration order.
func runJobs(ctx context.Context, tr *tracer, jobs []job, workers int) []*jobRun {
	out := make([]*jobRun, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			out[i] = runJob(ctx, tr, j)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runJob(ctx, tr, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}
