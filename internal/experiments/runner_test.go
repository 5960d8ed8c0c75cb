package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// capture records every OnStats emission in arrival order.
type capture struct {
	mu    sync.Mutex
	emits []emission
}

func (c *capture) opts(base Options) Options {
	base.OnStats = func(label string, snap stats.Snapshot) {
		c.mu.Lock()
		c.emits = append(c.emits, emission{label, snap})
		c.mu.Unlock()
	}
	return base
}

func (c *capture) labels() []string {
	out := make([]string, len(c.emits))
	for i, e := range c.emits {
		out[i] = e.label
	}
	return out
}

// TestRunJobsOrderAndEmissions drives the runner with synthetic jobs that
// finish out of order and checks the determinism contract directly: results
// and stats emissions come back in declaration order, bit-identical to a
// serial run.
func TestRunJobsOrderAndEmissions(t *testing.T) {
	const n = 32
	run := func(parallel int) ([]int, []string, error) {
		var c capture
		opts := c.opts(Options{Parallel: parallel})
		results, err := runJobs(opts, n, func(i int, jopts Options) (int, error) {
			// Later jobs finish first: the runner must reorder.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			jopts.OnStats(fmt.Sprintf("job%d/a", i), stats.Snapshot{})
			jopts.OnStats(fmt.Sprintf("job%d/b", i), stats.Snapshot{})
			return i * i, nil
		})
		return results, c.labels(), err
	}

	serialRes, serialEmits, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	parRes, parEmits, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRes, parRes) {
		t.Errorf("parallel results diverge:\nserial   %v\nparallel %v", serialRes, parRes)
	}
	if !reflect.DeepEqual(serialEmits, parEmits) {
		t.Errorf("parallel emission order diverges:\nserial   %v\nparallel %v", serialEmits, parEmits)
	}
	for i, r := range parRes {
		if r != i*i {
			t.Fatalf("result %d = %d, want %d", i, r, i*i)
		}
	}
}

// TestRunJobsErrorInJobOrder: the error surfaced is the one the serial run
// would have hit first, with the emissions of the preceding jobs delivered.
func TestRunJobsErrorInJobOrder(t *testing.T) {
	errA, errB := errors.New("job 5 failed"), errors.New("job 20 failed")
	var c capture
	opts := c.opts(Options{Parallel: 8})
	_, err := runJobs(opts, 32, func(i int, jopts Options) (int, error) {
		time.Sleep(time.Duration(32-i) * 50 * time.Microsecond)
		switch i {
		case 5:
			return 0, errA
		case 20:
			return 0, errB
		}
		jopts.OnStats(fmt.Sprintf("job%d", i), stats.Snapshot{})
		return i, nil
	})
	if err != errA {
		t.Fatalf("got error %v, want the first job's error %v", err, errA)
	}
	want := []string{"job0", "job1", "job2", "job3", "job4"}
	if !reflect.DeepEqual(c.labels(), want) {
		t.Errorf("emissions before the error: %v, want %v", c.labels(), want)
	}
}

// TestRunJobsConcurrencyAndTracerClamp checks that jobs genuinely overlap
// with Parallel > 1 and that a shared Tracer forces a serial run.
func TestRunJobsConcurrencyAndTracerClamp(t *testing.T) {
	maxInFlight := func(opts Options) int32 {
		var inFlight, peak int32
		_, err := runJobs(opts, 16, func(i int, jopts Options) (int, error) {
			cur := atomic.AddInt32(&inFlight, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&inFlight, -1)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return atomic.LoadInt32(&peak)
	}
	if peak := maxInFlight(Options{Parallel: 4}); peak < 2 {
		t.Errorf("Parallel=4 never overlapped jobs (peak %d)", peak)
	}
	if peak := maxInFlight(Options{Parallel: 4, Tracer: stats.NewTracer()}); peak != 1 {
		t.Errorf("shared tracer must force serial, saw %d jobs in flight", peak)
	}
}

// TestTable1ParallelMatchesSerial reproduces one real figure at several
// worker counts; rows and rendered text must be byte-identical. Runs in
// -short mode too, so the -race CI pass exercises the parallel path.
func TestTable1ParallelMatchesSerial(t *testing.T) {
	serial, err := Table1(Options{Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table1(Options{Quick: true, Parallel: 5})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Table1(Options{Quick: true, Parallel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel Table1 rows diverge from serial:\nserial   %+v\nparallel %+v", serial, par)
	}
	if !reflect.DeepEqual(par, again) {
		t.Errorf("two parallel Table1 runs diverge:\n%+v\n%+v", par, again)
	}
	if RenderTable1(serial) != RenderTable1(par) {
		t.Error("rendered Table1 text differs between serial and parallel")
	}
}

// TestSuiteParallelMatchesSerial is the acceptance test for the parallel
// engine: the full quick-mode suite run with Parallel=4 must produce output
// byte-identical to Parallel=1, the stats snapshots must be deep-equal in
// content and order, and a second parallel run with the same seed must
// reproduce the first exactly.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	skipInShort(t)
	run := func(parallel int) (string, []emission) {
		var c capture
		out, err := RunSuite(c.opts(Options{Quick: true, Seed: 1, Parallel: parallel}))
		if err != nil {
			t.Fatalf("suite with Parallel=%d: %v", parallel, err)
		}
		return out, c.emits
	}
	serialOut, serialEmits := run(1)
	parOut, parEmits := run(4)
	if serialOut != parOut {
		t.Errorf("suite output differs between -parallel 1 and -parallel 4:\n%s", firstDiff(serialOut, parOut))
	}
	if !reflect.DeepEqual(serialEmits, parEmits) {
		t.Error("stats emissions differ between -parallel 1 and -parallel 4")
	}
	againOut, againEmits := run(4)
	if parOut != againOut {
		t.Errorf("two -parallel 4 runs with the same seed differ:\n%s", firstDiff(parOut, againOut))
	}
	if !reflect.DeepEqual(parEmits, againEmits) {
		t.Error("stats emissions differ between two identical parallel runs")
	}
}

// firstDiff renders the first position where two strings diverge.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first divergence at byte %d:\nA: …%q\nB: …%q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}

// TestHarnessFiguresReportAndTrace: the chaos, recovery and tenants
// figures build their machines through withMachine, so each job's machine
// reaches -stats as one snapshot under its label and -trace sees it.
func TestHarnessFiguresReportAndTrace(t *testing.T) {
	var tenants []string
	for _, s := range testbed.AllSchemes {
		for _, n := range tenantCounts {
			tenants = append(tenants, fmt.Sprintf("tenants/%s-%d", s, n))
		}
	}
	for _, f := range []struct {
		name string
		run  func(Options) error
		want []string
	}{
		{"chaos", func(o Options) error { _, err := Chaos(o); return err },
			[]string{"chaos/netperf", "chaos/memcached"}},
		{"recovery", func(o Options) error { _, err := RecoveryFigure(o); return err },
			[]string{"recovery/deferred", "recovery/strict", "recovery/damn"}},
		{"tenants", func(o Options) error { _, err := Tenants(o); return err }, tenants},
	} {
		t.Run(f.name, func(t *testing.T) {
			var c capture
			opts := c.opts(Options{Quick: true, Seed: 1, FaultSeed: 1, Tracer: stats.NewTracer()})
			if err := f.run(opts); err != nil {
				t.Fatal(err)
			}
			if got := c.labels(); !reflect.DeepEqual(got, f.want) {
				t.Errorf("snapshots %v, want one per job: %v", got, f.want)
			}
			if opts.Tracer.Len() == 0 {
				t.Error("the trace holds no events")
			}
		})
	}
}
