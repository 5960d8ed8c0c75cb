package workloads

import (
	"fmt"

	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// ScalingConfig drives the RSS scale-out experiment: many flows spread by
// the NIC's Toeplitz hash across every RX ring (no aRFS pinning), so each
// core's NAPI context allocates, maps, and invalidates on its own DAMN
// shard and throughput should grow with core count.
type ScalingConfig struct {
	Machine  *testbed.Machine
	Duration sim.Time
	Warmup   sim.Time
	// ExtraCycles is the per-segment workload overhead (calibration).
	ExtraCycles float64
	// Wakeup charges blocked-reader wakeups per segment.
	Wakeup bool
}

// ScalingResult is one point of the scaling figure.
type ScalingResult struct {
	Scheme  string
	Cores   int
	RXGbps  float64
	CPUUtil float64
	// WrongCore is the driver's shard-affinity invariant counter: RX
	// completions that ran on a core other than their ring's. Must be 0.
	WrongCore uint64
	// ShardClamps is DAMN's out-of-range-CPU alias counter. Must be 0.
	ShardClamps uint64
}

// scalingFlowsPerRing is how many flows the selector places on every ring:
// enough to keep a ring busy through one flow's pauses.
const scalingFlowsPerRing int = 4

// selectScalingFlows picks flow ids whose RSS hash covers every ring with
// scalingFlowsPerRing flows each. Selection is a pure function of the
// fixed Toeplitz key and the ring count: it walks candidate flow ids in
// order and keeps a flow only if the ring its hash maps to still needs
// one, so the same core count always yields the same flow set — the
// determinism contract extends through ring placement.
func selectScalingFlows(ma *testbed.Machine) ([]*Generator, error) {
	rings := ma.NIC.Cfg.Rings
	need := rings * scalingFlowsPerRing
	counts := make([]int, rings)
	var gens []*Generator
	for flow := 1; len(gens) < need; flow++ {
		if flow > 1000*need {
			return nil, fmt.Errorf("workloads: RSS left a ring short after %d candidate flows (rings=%d)", flow-1, rings)
		}
		g := NewRSSGenerator(ma, len(gens)%ma.Model.NICPorts, flow, ma.Model.SegmentSize)
		if counts[g.Ring()] >= scalingFlowsPerRing {
			continue
		}
		counts[g.Ring()]++
		gens = append(gens, g)
	}
	return gens, nil
}

// RunScaling executes one point: pure-RSS netperf RX across all rings.
func RunScaling(cfg ScalingConfig) (ScalingResult, error) {
	ma := cfg.Machine
	if ma == nil {
		return ScalingResult{}, fmt.Errorf("workloads: nil machine")
	}
	if cfg.Duration == 0 {
		cfg.Duration = 100 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 20 * sim.Millisecond
	}
	if err := ma.FillAllRings(); err != nil {
		return ScalingResult{}, err
	}

	gens, err := selectScalingFlows(ma)
	if err != nil {
		return ScalingResult{}, err
	}
	receivers := map[int]*netstack.Receiver{}
	for _, g := range gens {
		receivers[g.flow] = &netstack.Receiver{
			K: ma.Kernel, ExtraCycles: cfg.ExtraCycles, Wakeup: cfg.Wakeup,
		}
	}
	ma.Driver.OnDeliver = netstack.DemuxFlows(receivers)
	for _, g := range gens {
		g.Start()
	}

	ma.Sim.Run(cfg.Warmup)
	rx0 := receivedBytes(receivers)
	w := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + cfg.Duration)
	m := w.Close()
	for _, g := range gens {
		g.Stop()
	}
	res := ScalingResult{
		Scheme:    ma.SchemeName(),
		Cores:     len(ma.Cores),
		RXGbps:    m.Gbps(receivedBytes(receivers) - rx0),
		CPUUtil:   m.CPUUtil(),
		WrongCore: ma.Driver.RxWrongCore,
	}
	if ma.Damn != nil {
		res.ShardClamps = ma.Damn.ShardClamps()
	}
	return res, nil
}
