package experiments

import (
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// SingleCoreRow is one bar pair of Fig 4: throughput and CPU of a
// single-core netperf TCP_STREAM run (4 instances pinned to core 0).
type SingleCoreRow struct {
	Scheme  string
	Dir     string // "RX" or "TX"
	Gbps    float64
	CPUUtil float64 // of ONE core (the paper's Fig 4 y2-axis)
}

// Fig4 reproduces Figure 4 (a: RX, b: TX). One job per direction × scheme.
func Fig4(opts Options) ([]SingleCoreRow, error) {
	warm, dur := opts.durations()
	specs := crossDirScheme(testbed.AllSchemes)
	return runJobs(opts, len(specs), func(i int, opts Options) (SingleCoreRow, error) {
		dir, scheme := specs[i].dir, specs[i].scheme
		return withMachine(opts, "fig4/"+string(scheme)+"-"+dir, opts.machineCfg(scheme, 512<<20, 32),
			func(ma *testbed.Machine) (SingleCoreRow, error) {
				cfg := workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					ExtraCycles: extraSingleCore,
				}
				if dir == "RX" {
					cfg.RXCores = repCores(0, 4)
				} else {
					cfg.TXCores = repCores(0, 4)
				}
				res, err := workloads.RunNetperf(cfg)
				if err != nil {
					return SingleCoreRow{}, err
				}
				return SingleCoreRow{
					Scheme: string(scheme), Dir: dir,
					Gbps:    res.TotalGbps,
					CPUUtil: res.CPUUtil * float64(len(ma.Cores)), // one-core scale
				}, nil
			})
	})
}

// dirScheme is one direction × scheme job spec shared by Fig 4 and Fig 5.
type dirScheme struct {
	dir    string
	scheme testbed.Scheme
}

func crossDirScheme(schemes []testbed.Scheme) []dirScheme {
	var specs []dirScheme
	for _, dir := range []string{"RX", "TX"} {
		for _, scheme := range schemes {
			specs = append(specs, dirScheme{dir, scheme})
		}
	}
	return specs
}

// RenderFig4 renders the figure as text.
func RenderFig4(rows []SingleCoreRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dir, r.Scheme, f1(r.Gbps), pct(r.CPUUtil)})
	}
	return "Figure 4: single-core netperf TCP_STREAM (4 instances on core 0)\n" +
		RenderTable([]string{"dir", "scheme", "Gb/s", "CPU (1 core)"}, cells)
}

// MultiCoreRow is one bar pair of Fig 5: 28 netperf instances, one per core.
type MultiCoreRow struct {
	Scheme  string
	Dir     string
	Gbps    float64
	CPUUtil float64 // of all 28 cores
}

// Fig5 reproduces Figure 5 (a: RX, b: TX). One job per direction × scheme.
func Fig5(opts Options) ([]MultiCoreRow, error) {
	warm, dur := opts.durations()
	specs := crossDirScheme(testbed.AllSchemes)
	return runJobs(opts, len(specs), func(i int, opts Options) (MultiCoreRow, error) {
		dir, scheme := specs[i].dir, specs[i].scheme
		return withMachine(opts, "fig5/"+string(scheme)+"-"+dir, opts.machineCfg(scheme, 1<<30, 32),
			func(ma *testbed.Machine) (MultiCoreRow, error) {
				cfg := workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					ExtraCycles: extraMultiCore, Wakeup: true,
				}
				if dir == "RX" {
					cfg.RXCores = seqCores(len(ma.Cores))
				} else {
					cfg.TXCores = seqCores(len(ma.Cores))
				}
				res, err := workloads.RunNetperf(cfg)
				if err != nil {
					return MultiCoreRow{}, err
				}
				return MultiCoreRow{
					Scheme: string(scheme), Dir: dir,
					Gbps: res.TotalGbps, CPUUtil: res.CPUUtil,
				}, nil
			})
	})
}

// RenderFig5 renders the figure as text.
func RenderFig5(rows []MultiCoreRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dir, r.Scheme, f1(r.Gbps), pct(r.CPUUtil)})
	}
	return "Figure 5: multi-core netperf TCP_STREAM (28 instances)\n" +
		RenderTable([]string{"dir", "scheme", "Gb/s", "CPU (28 cores)"}, cells)
}

// BidirRow is one group of Fig 1/Fig 6: bidirectional traffic, with the
// memory-bandwidth bars of Fig 6.
type BidirRow struct {
	Scheme    string
	TotalGbps float64
	RXGbps    float64
	TXGbps    float64
	CPUUtil   float64
	MemBWGBps float64
}

// Fig6 reproduces Figures 1 and 6 (same experiment; Fig 1 shows throughput
// + CPU, Fig 6 adds memory bandwidth): simultaneous RX and TX TCP_STREAM on
// all cores for a theoretical 200 Gb/s.
func Fig6(opts Options) ([]BidirRow, error) {
	return fig6Schemes(opts, testbed.AllSchemes)
}

func fig6Schemes(opts Options, schemes []testbed.Scheme) ([]BidirRow, error) {
	warm, dur := opts.durations()
	return runJobs(opts, len(schemes), func(i int, opts Options) (BidirRow, error) {
		scheme := schemes[i]
		return withMachine(opts, "fig6/"+string(scheme), opts.machineCfg(scheme, 1<<30, 32),
			func(ma *testbed.Machine) (BidirRow, error) {
				res, err := workloads.RunNetperf(workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					RXCores:     seqCores(len(ma.Cores)),
					TXCores:     seqCores(len(ma.Cores)),
					ExtraCycles: extraBidir, Wakeup: true,
				})
				if err != nil {
					return BidirRow{}, err
				}
				return BidirRow{
					Scheme:    string(scheme),
					TotalGbps: res.TotalGbps, RXGbps: res.RXGbps, TXGbps: res.TXGbps,
					CPUUtil: res.CPUUtil, MemBWGBps: res.MemBWGBps,
				}, nil
			})
	})
}

// RenderFig6 renders the figure as text.
func RenderFig6(rows []BidirRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme, f1(r.TotalGbps), f1(r.RXGbps), f1(r.TXGbps),
			pct(r.CPUUtil), f1(r.MemBWGBps),
		})
	}
	return "Figures 1 & 6: bidirectional multi-core netperf TCP_STREAM (peak 200 Gb/s)\n" +
		RenderTable([]string{"scheme", "total Gb/s", "RX", "TX", "CPU", "mem GB/s"}, cells)
}

// Table3Row is one configuration of Table 3.
type Table3Row struct {
	Config     string
	Gbps       float64
	PctOfIOMMU float64 // relative to iommu-off
}

// Table3 reproduces Table 3: the factors behind the damn ↔ iommu-off gap in
// the bidirectional test, using the dense-huge-IOVA variant and DAMN with
// the IOMMU in passthrough.
func Table3(opts Options) ([]Table3Row, error) {
	schemes := []testbed.Scheme{
		testbed.SchemeDAMN,
		testbed.SchemeDAMNHugeDense,
		testbed.SchemeDAMNNoIOMMU,
		testbed.SchemeOff,
	}
	bidir, err := fig6Schemes(opts, schemes)
	if err != nil {
		return nil, err
	}
	base := bidir[len(bidir)-1].TotalGbps
	var rows []Table3Row
	for _, r := range bidir {
		rows = append(rows, Table3Row{
			Config:     r.Scheme,
			Gbps:       r.TotalGbps,
			PctOfIOMMU: r.TotalGbps / base * 100,
		})
	}
	return rows, nil
}

// RenderTable3 renders the table as text.
func RenderTable3(rows []Table3Row) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Config, f1(r.Gbps), f1(r.PctOfIOMMU) + "%"})
	}
	return "Table 3: factors in the damn vs iommu-off bidirectional gap\n" +
		RenderTable([]string{"configuration", "Gb/s", "% of iommu-off"}, cells)
}
