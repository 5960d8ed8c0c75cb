// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each function assembles fresh testbeds, drives the
// paper's workload, and returns typed rows that cmd/damnbench renders and
// bench_test.go wraps as benchmarks. EXPERIMENTS.md records paper-vs-
// measured values for each.
package experiments

import (
	"fmt"
	"strings"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// Options tunes experiment scale. The zero value runs the full-fidelity
// settings used by EXPERIMENTS.md; Quick shrinks windows for tests.
type Options struct {
	Quick bool
	Seed  int64

	// Parallel is the worker count for the experiment runner (see
	// runner.go): every figure fans its scheme × datapoint jobs out across
	// this many workers. 0 means runtime.GOMAXPROCS(0); 1 runs the jobs
	// inline (serial). Output is byte-identical regardless of the value —
	// each job owns its machines and RNG, and results and stats emissions
	// are collected in declaration order.
	Parallel int

	// FaultRate, when positive, arms the deterministic fault-injection
	// plane on every machine the experiments build, giving each fault kind
	// this per-visit probability (see internal/faults). The degradation
	// paths keep the runs alive; the injected-fault counters land in each
	// machine's stats snapshot.
	FaultRate float64
	// FaultSeed roots the fault schedule (independent of Seed so the
	// workload and the faults can be varied separately).
	FaultSeed int64

	// Recovery attaches the fault-domain supervisor to the chaos harness's
	// machines, so chaos storms get quarantined and healed; cmd/damnbench
	// also uses it to add the recovery figure to a run.
	Recovery bool

	// OnStats, when non-nil, receives each machine's metrics snapshot after
	// its run, labelled "<figure>/<scheme>" (plus a direction or parameter
	// suffix where one figure runs several configurations per scheme).
	OnStats func(label string, snap stats.Snapshot)
	// Tracer, when non-nil, is attached to every machine the experiments
	// build; each machine appears as one process in the Chrome trace.
	Tracer *stats.Tracer
}

// faultConfig builds the machine fault plane from the options; nil when
// injection is off, so fault-free runs carry no injector at all.
func (o Options) faultConfig() *faults.Config {
	if o.FaultRate <= 0 {
		return nil
	}
	return &faults.Config{Seed: o.FaultSeed, Rates: faults.UniformRates(o.FaultRate)}
}

// emit hands a finished machine's metrics to the OnStats hook.
func (o Options) emit(label string, ma *testbed.Machine) {
	if o.OnStats != nil {
		o.OnStats(label, ma.StatsSnapshot())
	}
}

func (o Options) durations() (warm, dur sim.Time) {
	if o.Quick {
		return 10 * sim.Millisecond, 30 * sim.Millisecond
	}
	return 25 * sim.Millisecond, 100 * sim.Millisecond
}

// Per-scenario workload-overhead calibration (cycles per segment on top of
// the model's base costs). These absorb the multi-instance cache, NUMA and
// scheduler effects of the paper's testbed; see EXPERIMENTS.md ("workload
// calibration") for their derivations.
const (
	// extraSingleCore: 4 hot instances pinned to one core (Fig 4).
	extraSingleCore = 0
	// extraMultiCore: 28 instances, cross-socket traffic (Fig 5).
	extraMultiCore = 50000
	// extraBidir: 28+28 instances, ACK competition included separately
	// (Fig 1/6, Table 3).
	extraBidir = 44000
	// extraFig2: 8 hot instances on 4 cores.
	extraFig2 = 8000
	// extraFig8: 14-core RX with the netfilter callback.
	extraFig8 = 50000
	// extraScaling: the RSS scale-out figure — many pure-RSS flows per
	// ring, cross-core demux — pinned so 16 cores stay under the PCIe RX
	// ceiling (106 Gb/s) and the growth curve keeps its bottleneck-free
	// shape all the way up.
	extraScaling = 150000
)

// machineCfg is the figures' common machine: the 28-core testbed with
// memBytes of RAM, ring RX descriptors per ring, the run's seed and its
// fault plane. The model is a fresh one on every call, because NewMachine
// writes Cores into the model it is given.
func (o Options) machineCfg(scheme testbed.Scheme, memBytes int64, ring int) testbed.MachineConfig {
	return testbed.MachineConfig{
		Scheme:   scheme,
		Model:    perf.Default28Core(),
		MemBytes: memBytes,
		Seed:     o.Seed,
		RingSize: ring,
		Faults:   o.faultConfig(),
	}
}

// harnessCfg is the machine of the fault-plane harnesses (chaos, recovery,
// tenants): the default 1 GiB testbed with cores cores, engine seed 0, and
// a fault plane rooted at FaultSeed that gives every kind rate (0 for a
// plane the run raises itself).
func (o Options) harnessCfg(scheme testbed.Scheme, cores int, rate float64) testbed.MachineConfig {
	return testbed.MachineConfig{
		Scheme: scheme,
		Cores:  cores,
		Faults: &faults.Config{Seed: o.FaultSeed, Rates: faults.UniformRates(rate)},
	}
}

func seqCores(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func repCores(core, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = core
	}
	return out
}

// RenderTable formats rows as an aligned text table.
func RenderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
