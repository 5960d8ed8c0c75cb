package experiments

import (
	"runtime"
	"sync"

	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// The parallel experiment runner. Every figure decomposes into independent
// jobs — one per scheme × datapoint — and each job owns its entire world: a
// private testbed.Machine (engine, memory, IOMMU, RNG) plus a private
// stats.Registry. Nothing is shared between jobs, so they fan out across
// workers freely; determinism is preserved by collecting results and stats
// emissions in declaration order, which keeps the rendered output
// byte-identical to a serial (-parallel 1) run.
//
// Determinism rules for jobs:
//
//  1. A job builds every machine it uses itself (no machine reuse across
//     jobs) and seeds it only from Options and its own spec.
//  2. A job never touches package-level mutable state.
//  3. A job reports stats only through the Options it was handed — the
//     runner buffers those emissions per job and replays them in job order
//     after the fan-out joins, so OnStats observes the serial order even
//     though jobs finish out of order.
//
// A shared Tracer is the one per-run resource jobs cannot own privately
// (every machine appends to the same Chrome trace), so tracing runs force a
// single worker.

// emission is one buffered OnStats call.
type emission struct {
	label string
	snap  stats.Snapshot
}

// workers resolves the worker count for this run: the Parallel option,
// defaulting to GOMAXPROCS, clamped to 1 while tracing.
func (o Options) workers() int {
	if o.Tracer != nil {
		return 1
	}
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes n independent jobs and returns their results in job
// order. job receives its index and the Options it must run under — jobs
// must emit stats through those Options (not the caller's) so the runner
// can replay emissions deterministically. With one worker the jobs run
// inline, exactly like the pre-parallel code. Errors surface in job order:
// the failure reported is the one the serial run would have hit first.
func runJobs[T any](opts Options, n int, job func(i int, jopts Options) (T, error)) ([]T, error) {
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		out := make([]T, 0, n)
		for i := 0; i < n; i++ {
			r, err := job(i, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}

	results := make([]T, n)
	errs := make([]error, n)
	emits := make([][]emission, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				jopts := opts
				if opts.OnStats != nil {
					i := i
					jopts.OnStats = func(label string, snap stats.Snapshot) {
						emits[i] = append(emits[i], emission{label, snap})
					}
				}
				results[i], errs[i] = job(i, jopts)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Replay in declaration order: emissions of jobs before the first
	// error are delivered (as a serial run would), then the error.
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, em := range emits[i] {
			opts.OnStats(em.label, em.snap)
		}
	}
	return results, nil
}

// withMachine is a job's machine lifecycle: it builds the machine cfg
// describes, traced by the run's Tracer, runs fn on it, emits its metrics
// as label when fn succeeds, and releases it. Every figure's machines go
// through it, so -stats and -trace see each of them; a topology's machines
// are the exception (the cluster figure emits one per topology itself).
func withMachine[T any](opts Options, label string, cfg testbed.MachineConfig, fn func(ma *testbed.Machine) (T, error)) (T, error) {
	cfg.Tracer = opts.Tracer
	ma, err := testbed.NewMachine(cfg)
	if err != nil {
		var zero T
		return zero, err
	}
	defer ma.Close()
	res, err := fn(ma)
	if err == nil {
		opts.emit(label, ma)
	}
	return res, err
}
