package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// InterferenceRow is one bar group of Fig 2: bidirectional netperf on 4
// cores concurrent with 3 Graph500 BFS instances on the other 24.
type InterferenceRow struct {
	Config       string // scheme name, "no graph" or "no net"
	NetperfGbps  float64
	GraphIterSec float64 // mean BFS iteration time (0 when no graph runs)
}

// Fig2 reproduces Figure 2.
func Fig2(opts Options) ([]InterferenceRow, error) {
	warm, dur := opts.durations()
	// The paper's run is long enough for several BFS iterations; stretch
	// the window so at least a few complete.
	dur *= 4

	// Scale the BFS problem to the measurement window so several
	// iterations complete (the paper's 2^20-vertex graph iterates on the
	// scale of seconds; the simulated windows are tenths of seconds).
	vertices := 1 << 15
	if opts.Quick {
		vertices = 1 << 14
	}

	netCores := []int{0, 1, 14, 15} // 2 per socket
	graphSets := [][]int{
		{2, 3, 4, 5, 16, 17, 18, 19},
		{6, 7, 8, 9, 20, 21, 22, 23},
		{10, 11, 12, 13, 24, 25, 26, 27},
	}

	type spec struct {
		scheme             testbed.Scheme
		withNet, withGraph bool
		config, suffix     string
	}
	var specs []spec
	for _, scheme := range testbed.AllSchemes {
		specs = append(specs, spec{scheme, true, true, string(scheme), ""})
	}
	// "no graph": netperf alone with the IOMMU off; "no net": Graph500 alone.
	specs = append(specs,
		spec{testbed.SchemeOff, true, false, "no graph", "-nograph"},
		spec{testbed.SchemeOff, false, true, "no net", "-nonet"})
	return runJobs(opts, len(specs), func(i int, opts Options) (InterferenceRow, error) {
		s := specs[i]
		label := "fig2/" + string(s.scheme) + s.suffix
		return withMachine(opts, label, opts.machineCfg(s.scheme, 1<<30, 32), func(ma *testbed.Machine) (InterferenceRow, error) {
			var graphs []*workloads.Graph500Instance
			if s.withGraph {
				for _, cores := range graphSets {
					graphs = append(graphs, workloads.StartGraph500(workloads.Graph500Config{
						Machine: ma, Cores: cores, Vertices: vertices,
					}))
				}
			}
			row := InterferenceRow{Config: s.config}
			if s.withNet {
				res, err := workloads.RunNetperf(workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					RXCores: netCores, TXCores: netCores,
					ExtraCycles: extraFig2,
				})
				if err != nil {
					return InterferenceRow{}, err
				}
				row.NetperfGbps = res.TotalGbps
			} else {
				ma.Sim.Run(warm + dur)
			}
			for _, g := range graphs {
				g.Stop()
			}
			var sum sim.Time
			n := 0
			for _, g := range graphs {
				if t := g.MeanIterTime(); t > 0 {
					sum += t
					n++
				}
			}
			if n > 0 {
				row.GraphIterSec = (sum / sim.Time(n)).Seconds()
			}
			return row, nil
		})
	})
}

// RenderFig2 renders the figure as text.
func RenderFig2(rows []InterferenceRow) string {
	var cells [][]string
	for _, r := range rows {
		net, g := "-", "-"
		if r.NetperfGbps > 0 {
			net = f1(r.NetperfGbps)
		}
		if r.GraphIterSec > 0 {
			g = fmt.Sprintf("%.3f", r.GraphIterSec)
		}
		cells = append(cells, []string{r.Config, net, g})
	}
	return "Figure 2: netperf + Graph500 interference (4 net cores, 3×8 BFS cores)\n" +
		RenderTable([]string{"config", "netperf Gb/s", "BFS s/iter"}, cells)
}

// MemcachedRow is one bar pair of Fig 7.
type MemcachedRow struct {
	Scheme  string
	TPS     float64
	CPUUtil float64
}

// Fig7 reproduces Figure 7: 28 memcached instances under memslap with
// 50/50 GET/SET of 512 KiB values.
func Fig7(opts Options) ([]MemcachedRow, error) {
	warm, dur := opts.durations()
	schemes := testbed.AllSchemes
	return runJobs(opts, len(schemes), func(i int, opts Options) (MemcachedRow, error) {
		scheme := schemes[i]
		return withMachine(opts, "fig7/"+string(scheme), opts.machineCfg(scheme, 1<<30, 32),
			func(ma *testbed.Machine) (MemcachedRow, error) {
				res, err := workloads.RunMemcached(workloads.MemcachedConfig{
					Machine: ma, Warmup: warm, Duration: dur,
				})
				if err != nil {
					return MemcachedRow{}, err
				}
				return MemcachedRow{Scheme: string(scheme), TPS: res.TPS, CPUUtil: res.CPUUtil}, nil
			})
	})
}

// RenderFig7 renders the figure as text.
func RenderFig7(rows []MemcachedRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Scheme, fmt.Sprintf("%.0f", r.TPS), pct(r.CPUUtil)})
	}
	return "Figure 7: memcached (28 instances, 50/50 GET/SET, 512 KiB values)\n" +
		RenderTable([]string{"scheme", "TPS", "CPU"}, cells)
}

// TocttouRow is one point of Fig 8: CPU use as a netfilter callback
// accesses a growing fraction of each segment's bytes.
type TocttouRow struct {
	Scheme        string
	AccessedBytes int
	CPUUtil       float64 // of the 14 cores used
	Gbps          float64
}

// Fig8 reproduces Figure 8: netperf RX on the 14 cores of one socket with
// an XOR netfilter callback touching 0 B … 64 KiB of each segment.
func Fig8(opts Options) ([]TocttouRow, error) {
	warm, dur := opts.durations()
	sizes := []int{0, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}
	schemes := []testbed.Scheme{testbed.SchemeOff, testbed.SchemeShadow, testbed.SchemeDAMN}
	type spec struct {
		scheme testbed.Scheme
		n      int
	}
	var specs []spec
	for _, scheme := range schemes {
		for _, n := range sizes {
			specs = append(specs, spec{scheme, n})
		}
	}
	return runJobs(opts, len(specs), func(i int, opts Options) (TocttouRow, error) {
		scheme, n := specs[i].scheme, specs[i].n
		return withMachine(opts, fmt.Sprintf("fig8/%s-%dB", scheme, n), opts.machineCfg(scheme, 1<<30, 32),
			func(ma *testbed.Machine) (TocttouRow, error) {
				if n > 0 {
					ma.Kernel.Netfilter.Register(func(t *sim.Task, skb *netstack.SKBuff) netstack.Verdict {
						// Access pulls the bytes out of the device's
						// reach (the DAMN copy); the XOR itself is the
						// cheap segment processing of §6.2.
						if _, err := skb.Access(t, n); err != nil {
							return netstack.Drop
						}
						perf.Charge(t, float64(n)*ma.Model.XorCyclesPerByte)
						return netstack.Accept
					})
				}
				res, err := workloads.RunNetperf(workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					RXCores:     seqCores(14),
					ExtraCycles: extraFig8, Wakeup: true,
				})
				if err != nil {
					return TocttouRow{}, err
				}
				return TocttouRow{
					Scheme:        string(scheme),
					AccessedBytes: n,
					// Report CPU relative to the 14 busy cores, as the figure does.
					CPUUtil: res.CPUUtil * float64(len(ma.Cores)) / 14,
					Gbps:    res.RXGbps,
				}, nil
			})
	})
}

// RenderFig8 renders the figure as text.
func RenderFig8(rows []TocttouRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme, fmt.Sprintf("%d", r.AccessedBytes), pct(r.CPUUtil), f1(r.Gbps),
		})
	}
	return "Figure 8: CPU cost of accessing packet bytes (14-core RX + XOR netfilter)\n" +
		RenderTable([]string{"scheme", "bytes accessed", "CPU (14 cores)", "Gb/s"}, cells)
}
