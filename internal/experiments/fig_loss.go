package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// lossRates is the swept link-loss percentage: each point drops 80% of the
// lost segments cleanly and corrupts the other 20% (checksum-fail drops at
// the completion ring), so both loss flavours feed the retransmission path.
var lossRates = []float64{0, 0.1, 0.5, 1, 2, 5}

// LossRow is one datapoint of the loss-resilience figure: one scheme at one
// loss rate (or, with Chaos set, under the uniform chaos schedule).
type LossRow struct {
	LossPct float64
	Chaos   bool
	Res     workloads.LossResult
}

// Loss is the loss-resilience figure this repo adds beyond the paper: the
// paper's testbed assumes a clean 100 Gb/s wire, but DAMN's claim — IOMMU
// protection without a data-path toll — must also hold when the transport
// is doing real work. Reliable (ARQ) flows run over a lossy link at each
// swept rate, and the figure reports delivered goodput, the retransmission
// rate, and CPU per delivered megabyte. Every retransmitted segment re-pays
// its scheme's RX buffer cost and every ACK pays the TX map/unmap cost, so
// the per-scheme cost asymmetry under loss is measured end to end: strict's
// retransmissions re-cross the strict map/unmap path while DAMN's reuse its
// permanent mapping. The final column is the chaos gate — the same flows
// under the uniform all-kinds fault schedule with the recovery supervisor
// attached.
func Loss(opts Options) ([]LossRow, error) {
	warm, dur := 10*sim.Millisecond, 30*sim.Millisecond
	if opts.Quick {
		warm, dur = 5*sim.Millisecond, 10*sim.Millisecond
	}
	type spec struct {
		scheme testbed.Scheme
		pct    float64
		chaos  bool
	}
	var specs []spec
	for _, scheme := range testbed.AllSchemes {
		for _, pct := range lossRates {
			specs = append(specs, spec{scheme, pct, false})
		}
		specs = append(specs, spec{scheme, 0, true})
	}
	return runJobs(opts, len(specs), func(i int, opts Options) (LossRow, error) {
		sp := specs[i]
		rates := map[faults.Kind]float64{
			faults.LinkDrop:    0.8 * sp.pct / 100,
			faults.LinkCorrupt: 0.2 * sp.pct / 100,
		}
		if sp.chaos {
			// The chaos column: the reliable flows run under the chaos
			// harness's schedule (DMA faults, drops, duplicates,
			// reordering, corruption) with the recovery supervisor
			// attached, and the column reports what goodput survives it.
			rates = faults.UniformRates(workloads.ChaosRate)
		}
		ma, err := testbed.NewMachine(testbed.MachineConfig{
			Scheme:   sp.scheme,
			Model:    perf.Default28Core(),
			MemBytes: 1 << 30,
			Seed:     opts.Seed,
			RingSize: 32,
			Cores:    4,
			Tracer:   opts.Tracer,
			Faults:   &faults.Config{Seed: opts.FaultSeed, Rates: rates},
		})
		if err != nil {
			return LossRow{}, err
		}
		defer ma.Close()
		var sup *recovery.Supervisor
		if sp.chaos {
			// The chaos schedule storms the DMA path too; the supervisor
			// quarantines and heals, and the ARQ pumps ride out the outage.
			sup = recovery.Attach(ma)
		}
		res, err := workloads.RunLoss(workloads.LossConfig{
			Machine: ma, Warmup: warm, Duration: dur,
		})
		if sup != nil {
			sup.Stop()
		}
		if err != nil {
			return LossRow{}, fmt.Errorf("loss %s/%.1f%%: %w", sp.scheme, sp.pct, err)
		}
		label := fmt.Sprintf("loss/%s-%.1f", sp.scheme, sp.pct)
		if sp.chaos {
			label = fmt.Sprintf("loss/%s-chaos", sp.scheme)
		}
		opts.emit(label, ma)
		return LossRow{LossPct: sp.pct, Chaos: sp.chaos, Res: res}, nil
	})
}

// RenderLoss renders the figure: one row per scheme; goodput across the
// swept loss rates, how much of the clean-wire goodput survives 1% loss,
// the retransmit rate and the CPU cost per delivered megabyte at 5% (where
// every retransmission re-pays the scheme's map/unmap toll), and the chaos
// column.
func RenderLoss(rows []LossRow) string {
	header := []string{"scheme"}
	for _, pct := range lossRates {
		header = append(header, fmt.Sprintf("%g%% Gb/s", pct))
	}
	header = append(header, "recov@1%", "retx@5%", "cpu µs/MB@5%", "chaos Gb/s", "chaos retx")

	type group struct {
		scheme string
		byPct  map[float64]LossRow
		chaos  LossRow
	}
	var order []string
	groups := map[string]*group{}
	for _, r := range rows {
		g, ok := groups[r.Res.Scheme]
		if !ok {
			g = &group{scheme: r.Res.Scheme, byPct: map[float64]LossRow{}}
			groups[r.Res.Scheme] = g
			order = append(order, r.Res.Scheme)
		}
		if r.Chaos {
			g.chaos = r
		} else {
			g.byPct[r.LossPct] = r
		}
	}
	var cells [][]string
	for _, s := range order {
		g := groups[s]
		row := []string{s}
		for _, pct := range lossRates {
			row = append(row, f1(g.byPct[pct].Res.GoodputGbps))
		}
		clean, one, five := g.byPct[0].Res, g.byPct[1].Res, g.byPct[5].Res
		recov := 0.0
		if clean.GoodputGbps > 0 {
			recov = one.GoodputGbps / clean.GoodputGbps
		}
		row = append(row,
			pct(recov),
			fmt.Sprintf("%.2f%%", five.RetxPct),
			f1(five.CPUPerMB),
			f1(g.chaos.Res.GoodputGbps),
			fmt.Sprintf("%.2f%%", g.chaos.Res.RetxPct),
		)
		cells = append(cells, row)
	}
	return "Loss resilience — ARQ goodput and retransmission cost vs. link loss\n" +
		RenderTable(header, cells)
}
