package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// recoverySchemes is the comparison set of the recovery figure: the two
// legacy protection schemes plus DAMN. (iommu-off is excluded: without
// translation there are no DMA faults to storm, so there is nothing to
// contain or recover.)
var recoverySchemes = []testbed.Scheme{
	testbed.SchemeDeferred, testbed.SchemeStrict, testbed.SchemeDAMN,
}

// RecoveryFigure measures fault-domain containment per scheme: steady-state
// throughput, the dip while a DMA-fault storm rages and the device sits
// quarantined, the time to detect and to repair, and the allocator
// reclamation the reset performed. One four-core machine per scheme, with
// a zero-rate fault plane rooted at FaultSeed that the run storms itself,
// fanned out by the parallel runner; byte-identical output for any worker
// count.
func RecoveryFigure(opts Options) ([]workloads.RecoveryResult, error) {
	var base workloads.RecoveryConfig
	if opts.Quick {
		base.Warmup = 5 * sim.Millisecond
		base.Steady = 8 * sim.Millisecond
		base.Measure = 8 * sim.Millisecond
	}
	return runJobs(opts, len(recoverySchemes), func(i int, opts Options) (workloads.RecoveryResult, error) {
		scheme := recoverySchemes[i]
		res, err := withMachine(opts, "recovery/"+string(scheme), opts.harnessCfg(scheme, 4, 0),
			func(ma *testbed.Machine) (workloads.RecoveryResult, error) {
				c := base
				c.Machine = ma
				return workloads.RunRecovery(c)
			})
		if err != nil {
			return res, fmt.Errorf("recovery %s: %w", scheme, err)
		}
		return res, nil
	})
}

// fus renders simulated picoseconds as microseconds.
func fus(t sim.Time) string { return fmt.Sprintf("%.1f", float64(t)/1e6) }

// RenderRecovery formats the recovery figure.
func RenderRecovery(rows []workloads.RecoveryResult) string {
	header := []string{"scheme", "steady Gb/s", "storm Gb/s", "recovered Gb/s",
		"detect µs", "MTTR µs", "storms", "resets", "reclaimed pages", "pinned chunks", "final state"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme, f1(r.SteadyGbps), f1(r.StormGbps), f1(r.RecoveredGbps),
			fus(r.DetectPS), fus(r.MTTRPS),
			fmt.Sprintf("%d", r.Storms), fmt.Sprintf("%d", r.Resets),
			fmt.Sprintf("%d", r.ReleasedPages), fmt.Sprintf("%d", r.PinnedChunks),
			r.FinalState,
		})
	}
	return "Recovery — throughput dip and time-to-recover under a DMA-fault storm\n" +
		RenderTable(header, cells)
}
