package experiments

import (
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// AblationRow is one design-ablation configuration measured on the
// bidirectional netperf workload of Fig 6.
type AblationRow struct {
	Config    string
	TotalGbps float64
	CPUUtil   float64
}

// Ablations quantifies the design choices §5.4 argues for, which the paper
// asserts but does not plot:
//
//   - damn                 — the full design;
//   - damn-single-context  — one DMA-cache copy per core, protected by
//     disabling interrupts around every operation (the paper: "interrupt
//     disabling has measurable negative impact on I/O throughput");
//   - damn-no-dma-cache    — no chunk caching at all: every buffer zeroes,
//     maps, unmaps and invalidates its chunk (why the permanent mapping is
//     the whole point).
//
// Deferred is included as the non-DAMN reference. The workload is the
// CPU-bound single-core RX test of Fig 4a, where allocator-path costs are
// directly visible in throughput.
func Ablations(opts Options) ([]AblationRow, error) {
	schemes := []testbed.Scheme{
		testbed.SchemeDAMN,
		testbed.SchemeDAMNSingleCtx,
		testbed.SchemeDAMNNoCache,
		testbed.SchemeDeferred,
	}
	warm, dur := opts.durations()
	return runJobs(opts, len(schemes), func(i int, opts Options) (AblationRow, error) {
		scheme := schemes[i]
		return withMachine(opts, "ablations/"+string(scheme), opts.machineCfg(scheme, 512<<20, 32),
			func(ma *testbed.Machine) (AblationRow, error) {
				res, err := workloads.RunNetperf(workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					RXCores: repCores(0, 4),
				})
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Config:    string(scheme),
					TotalGbps: res.TotalGbps,
					CPUUtil:   res.CPUUtil * float64(len(ma.Cores)), // one-core scale
				}, nil
			})
	})
}

// RenderAblations renders the ablation table as text.
func RenderAblations(rows []AblationRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Config, f1(r.TotalGbps), pct(r.CPUUtil)})
	}
	return "Design ablations (single-core RX netperf, §5.4's choices quantified)\n" +
		RenderTable([]string{"configuration", "Gb/s", "CPU (1 core)"}, cells)
}
