package experiments

import (
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// Footnote5Row is one configuration of the paper's footnote 5: a single RX
// netperf instance on one port with the Linux-default network
// configuration — 1500-byte MTU, LRO off — where per-packet rates explode
// and IOMMU protection overheads dominate: "a single RX netperf ... will
// approach 20 Gb/s if the IOMMU is turned off. This throughput will further
// drop to around 5 Gb/s if the IOMMU is turned on and deferred is used (or
// half that much if strict is used)".
type Footnote5Row struct {
	Scheme string
	Gbps   float64
}

// footnote5Model derives the default-config cost model: per-1500-byte-packet
// stack costs, and the *unamortized* per-mapping IOVA/IOMMU costs that the
// jumbo+LRO configuration hides (each small mapping pays the full IOVA
// allocator and invalidation price — the regime the ATC'15 scalability work
// attacked).
func footnote5Model() *perf.Model {
	m := perf.Default28Core()
	m.SegmentSize = 1500
	m.RXSegCycles = 800 // per-packet stack cost (no LRO aggregation)
	m.SkbAllocCycles = 180
	m.SkbFreeCycles = 120
	m.MapCycles = 2000 // unamortized IOVA rbtree allocation + PTE setup
	m.UnmapCycles = 1200
	m.DeferredEnqueueCycles = 350
	m.IOTLBInvLatency = 2400 * sim.Nanosecond
	return m
}

// Footnote5 reproduces the footnote: one netperf RX instance, one port,
// MTU 1500, LRO off.
func Footnote5(opts Options) ([]Footnote5Row, error) {
	warm, dur := opts.durations()
	schemes := []testbed.Scheme{
		testbed.SchemeOff, testbed.SchemeDeferred, testbed.SchemeStrict, testbed.SchemeDAMN,
	}
	return runJobs(opts, len(schemes), func(i int, opts Options) (Footnote5Row, error) {
		scheme := schemes[i]
		cfg := opts.machineCfg(scheme, 512<<20, 256) // small buffers: deeper ring, as drivers configure
		cfg.Model = footnote5Model()
		return withMachine(opts, "footnote5/"+string(scheme), cfg, func(ma *testbed.Machine) (Footnote5Row, error) {
			res, err := workloads.RunNetperf(workloads.NetperfConfig{
				Machine: ma, Warmup: warm, Duration: dur,
				RXCores: []int{0}, // a single instance
			})
			if err != nil {
				return Footnote5Row{}, err
			}
			return Footnote5Row{Scheme: string(scheme), Gbps: res.RXGbps}, nil
		})
	})
}

// RenderFootnote5 renders the table as text.
func RenderFootnote5(rows []Footnote5Row) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Scheme, f1(r.Gbps)})
	}
	return "Footnote 5: single netperf RX, one port, MTU 1500, LRO off (paper: ≈20 / ≈5 / ≈2.5 Gb/s)\n" +
		RenderTable([]string{"scheme", "Gb/s"}, cells)
}
