package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// Fig9Point is one time sample of Fig 9.
type Fig9Point struct {
	TimeSec       float64
	EverPages     int64 // distinct pages that ever held DMA buffers
	CurrentlyMapd int64 // pages currently IOMMU-mapped for the NIC
}

// Fig9 reproduces Figure 9: under stock Linux (deferred), the set of pages
// that have ever been exposed to the device grows without bound while the
// instantaneous mapping count stays flat. The paper samples 30 minutes of
// four netperfs beside an iterative kernel compile; the simulation runs a
// time-scaled version of the same setup (see EXPERIMENTS.md).
func Fig9(opts Options) ([]Fig9Point, error) {
	// One machine sampled over time — a single job, routed through the
	// runner so stats emission follows the same deterministic path as the
	// fanned-out figures.
	pointSets, err := runJobs(opts, 1, func(_ int, opts Options) ([]Fig9Point, error) {
		return withMachine(opts, "fig9/deferred", opts.machineCfg(testbed.SchemeDeferred, 2<<30, 16),
			func(ma *testbed.Machine) ([]Fig9Point, error) { return fig9Run(ma, opts) })
	})
	if err != nil {
		return nil, err
	}
	return pointSets[0], nil
}

// fig9Run samples the machine over time. Its load runs until the machine
// is released: nothing runs the engine after the last sample.
func fig9Run(ma *testbed.Machine, opts Options) ([]Fig9Point, error) {
	total := 10 * sim.Second
	sample := 500 * sim.Millisecond
	if opts.Quick {
		total = 2 * sim.Second
		sample = 100 * sim.Millisecond
	}
	if err := ma.FillAllRings(); err != nil {
		return nil, err
	}
	// Four netperf RX instances…
	receivers := map[int]*netstack.Receiver{}
	ma.Driver.OnDeliver = netstack.DemuxFlows(receivers)
	for i := 0; i < 4; i++ {
		receivers[i+1] = &netstack.Receiver{K: ma.Kernel}
		g, err := workloads.NewGenerator(ma, i%ma.Model.NICPorts, i, i+1, ma.Model.SegmentSize)
		if err != nil {
			return nil, err
		}
		g.Start()
	}
	// …beside the kernel-compile allocator churn on the other cores.
	workloads.StartKCompile(ma, seqCores(len(ma.Cores))[4:], opts.Seed+7)

	var points []Fig9Point
	for now := sim.Time(0); now <= total; now += sample {
		ma.Sim.Run(now)
		points = append(points, Fig9Point{
			TimeSec:       ma.Sim.Now().Seconds(),
			EverPages:     ma.DMA.EverDMAPages(),
			CurrentlyMapd: ma.IOMMU.MappedPages(testbed.NICDeviceID),
		})
	}
	return points, nil
}

// RenderFig9 renders the series as text.
func RenderFig9(points []Fig9Point) string {
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{
			fmt.Sprintf("%.1f", p.TimeSec),
			fmt.Sprintf("%d (%d MiB)", p.EverPages, p.EverPages*mem.PageSize>>20),
			fmt.Sprintf("%d (%d MiB)", p.CurrentlyMapd, p.CurrentlyMapd*mem.PageSize>>20),
		})
	}
	return "Figure 9: pages ever vs currently holding DMA buffers (stock Linux/deferred)\n" +
		RenderTable([]string{"t (s)", "ever mapped", "currently mapped"}, cells)
}

// MemUsageRow is one bar of Fig 10.
type MemUsageRow struct {
	Scheme    string
	Direction string // "RX", "TX", "bidir"
	Instances int
	AvgMiB    float64
}

// Fig10 reproduces Figure 10: average kernel memory usage during netperf
// TCP_STREAM runs with growing instance counts, comparing iommu-off with
// DAMN (whose DMA caches recycle buffers, §6.3).
func Fig10(opts Options) ([]MemUsageRow, error) {
	warm, dur := opts.durations()
	counts := []int{4, 8, 16, 28}
	if opts.Quick {
		counts = []int{4, 28}
	}
	type spec struct {
		scheme testbed.Scheme
		dir    string
		n      int
	}
	var specs []spec
	for _, scheme := range []testbed.Scheme{testbed.SchemeOff, testbed.SchemeDAMN} {
		for _, dir := range []string{"RX", "TX", "bidir"} {
			for _, n := range counts {
				specs = append(specs, spec{scheme, dir, n})
			}
		}
	}
	return runJobs(opts, len(specs), func(i int, opts Options) (MemUsageRow, error) {
		scheme, dir, n := specs[i].scheme, specs[i].dir, specs[i].n
		return withMachine(opts, fmt.Sprintf("fig10/%s-%s-%d", scheme, dir, n), opts.machineCfg(scheme, 2<<30, 32),
			func(ma *testbed.Machine) (MemUsageRow, error) {
				// Sample allocated kernel pages every millisecond.
				var samples []int64
				stop := ma.Sim.Every(sim.Millisecond, func() {
					samples = append(samples, ma.Mem.AllocatedPages())
				})
				cfg := workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					ExtraCycles: extraMultiCore, Wakeup: true,
				}
				switch dir {
				case "RX":
					cfg.RXCores = seqCores(n)
				case "TX":
					cfg.TXCores = seqCores(n)
				default:
					cfg.RXCores = seqCores(n)
					cfg.TXCores = seqCores(n)
				}
				if _, err := workloads.RunNetperf(cfg); err != nil {
					return MemUsageRow{}, err
				}
				stop()
				var sum int64
				for _, s := range samples {
					sum += s
				}
				avg := 0.0
				if len(samples) > 0 {
					avg = float64(sum) / float64(len(samples)) * mem.PageSize / (1 << 20)
				}
				return MemUsageRow{
					Scheme: string(scheme), Direction: dir, Instances: n, AvgMiB: avg,
				}, nil
			})
	})
}

// RenderFig10 renders the figure as text.
func RenderFig10(rows []MemUsageRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme, r.Direction, fmt.Sprintf("%d", r.Instances), fmt.Sprintf("%.0f", r.AvgMiB),
		})
	}
	return "Figure 10: kernel memory usage during netperf TCP_STREAM\n" +
		RenderTable([]string{"scheme", "dir", "instances", "avg MiB"}, cells)
}
