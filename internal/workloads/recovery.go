package workloads

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// RecoveryConfig describes one recovery experiment: a bidirectional netperf
// that reaches steady state, suffers a scheduled DMA-fault storm, and is
// healed by the fault-domain supervisor. Every phase boundary is a fixed
// simulated time and the storm is drawn from the seeded fault plane, so the
// whole trajectory — dip, detection, quarantine, reset, recovery — replays
// byte-identically from (Scheme, FaultSeed).
type RecoveryConfig struct {
	Scheme    testbed.Scheme
	FaultSeed int64
	// Cores for the machine (default 4, like the chaos harness).
	Cores int
	// Warmup precedes the steady-state measurement (default 10 ms).
	Warmup sim.Time
	// Steady is the pre-storm measurement window (default 15 ms).
	Steady sim.Time
	// StormLen is how long the DMA-fault rate stays raised (default 2 ms).
	StormLen sim.Time
	// StormRate is the per-translation fault probability during the storm
	// (default 0.5 — a sick device, not a flaky link).
	StormRate float64
	// RecoveryDeadline bounds how long the run waits for the device to
	// return to Healthy after the storm ends (default 50 ms).
	RecoveryDeadline sim.Time
	// Settle separates recovery from the recovered-throughput measurement
	// (default 3 ms).
	Settle sim.Time
	// Measure is the post-recovery measurement window (default 15 ms).
	Measure sim.Time
	// Supervisor tunes the recovery supervisor (zero = defaults).
	Supervisor recovery.Config
}

// RecoveryResult is one row of the recovery figure.
type RecoveryResult struct {
	Scheme string
	// SteadyGbps / StormGbps / RecoveredGbps are total (RX+TX) throughput
	// before the storm, during the storm+outage, and after recovery.
	SteadyGbps    float64
	StormGbps     float64
	RecoveredGbps float64
	// DetectPS is storm start → quarantine; MTTRPS is quarantine → healthy.
	DetectPS sim.Time
	MTTRPS   sim.Time
	// FinalState is the NIC's state at run end ("healthy" on success).
	FinalState  string
	Storms      uint64
	Quarantines uint64
	Resets      uint64
	// ReleasedPages / PinnedChunks report the allocator reclamation the
	// reset performed (0 on non-DAMN schemes).
	ReleasedPages int64
	PinnedChunks  int
	// DamnLiveChunks is the post-audit live-chunk count (-1 without DAMN).
	DamnLiveChunks int
	// FaultRecords / FaultOverflows are the NIC's per-device fault-ring
	// counters; ScheduleDigest fingerprints the fault schedule.
	FaultRecords   uint64
	FaultOverflows uint64
	ScheduleDigest uint64
}

func (cfg *RecoveryConfig) defaults() {
	if cfg.Scheme == "" {
		cfg.Scheme = testbed.SchemeDAMN
	}
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 10 * sim.Millisecond
	}
	if cfg.Steady == 0 {
		cfg.Steady = 15 * sim.Millisecond
	}
	if cfg.StormLen == 0 {
		cfg.StormLen = 2 * sim.Millisecond
	}
	if cfg.StormRate == 0 {
		cfg.StormRate = 0.5
	}
	if cfg.RecoveryDeadline == 0 {
		cfg.RecoveryDeadline = 50 * sim.Millisecond
	}
	if cfg.Settle == 0 {
		cfg.Settle = 3 * sim.Millisecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 15 * sim.Millisecond
	}
}

// RunRecovery executes the storm-and-heal experiment and returns its row.
func RunRecovery(cfg RecoveryConfig) (RecoveryResult, error) {
	cfg.defaults()
	// The fault plane is armed with every rate at zero: the storm is the
	// only injected failure, raised and lowered by scheduled events.
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: cfg.Scheme,
		Cores:  cfg.Cores,
		Faults: &faults.Config{Seed: cfg.FaultSeed, Rates: map[faults.Kind]float64{}},
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	defer ma.Close()
	sup := recovery.Attach(ma, cfg.Supervisor)

	if err := ma.FillAllRings(); err != nil {
		return RecoveryResult{}, err
	}

	// Bidirectional netperf: half the cores receive, half send.
	rxCores := make([]int, len(ma.Cores)/2)
	for i := range rxCores {
		rxCores[i] = i
	}
	receivers := map[int]*netstack.Receiver{}
	var gens []*Generator
	for i, core := range rxCores {
		flow := i + 1
		receivers[flow] = &netstack.Receiver{K: ma.Kernel, AckCost: true}
		g, err := NewGenerator(ma, i%ma.Model.NICPorts, core, flow, ma.Model.SegmentSize)
		if err != nil {
			return RecoveryResult{}, err
		}
		gens = append(gens, g)
	}
	ma.Driver.OnDeliver = netstack.DemuxFlows(receivers)
	var senders []*netstack.Sender
	for i := len(rxCores); i < len(ma.Cores); i++ {
		snd := &netstack.Sender{
			K: ma.Kernel, Drv: ma.Driver, Core: ma.Cores[i],
			Ring: i, PortID: i % ma.Model.NICPorts, Flow: 1000 + i,
			AckCost: true,
		}
		senders = append(senders, snd)
	}
	// A quarantine stalls sender pumps on Transmit errors with no
	// completion left to restart them; the supervisor kicks them awake.
	sup.OnRecovered = func(dev int) {
		if dev != testbed.NICDeviceID {
			return
		}
		for _, s := range senders {
			s.Kick()
		}
	}
	for _, g := range gens {
		g.Start()
	}
	for _, s := range senders {
		s.Start()
	}

	bytesNow := func() uint64 { return receivedBytes(receivers) + sentBytes(senders) }
	measure := func(dur sim.Time) float64 {
		b0, w := bytesNow(), ma.OpenWindow()
		ma.Sim.Run(ma.Sim.Now() + dur)
		return w.Close().Gbps(bytesNow() - b0)
	}

	res := RecoveryResult{Scheme: ma.SchemeName()}

	ma.Sim.Run(cfg.Warmup)
	res.SteadyGbps = measure(cfg.Steady)

	// The storm: a scheduled event raises the DMA-fault rate, a later one
	// drops it back. Both are ordinary sim events — the trajectory is a
	// pure function of the seed.
	stormStart := ma.Sim.Now()
	ma.Faults.SetRate(faults.DMAFault, cfg.StormRate)
	ma.Sim.At(stormStart+cfg.StormLen, func() {
		ma.Faults.SetRate(faults.DMAFault, 0)
	})
	res.StormGbps = measure(cfg.StormLen)

	// Step deterministically until the supervisor heals the device (or the
	// deadline expires and the row reports the terminal state).
	deadline := ma.Sim.Now() + cfg.RecoveryDeadline
	for ma.Sim.Now() < deadline && sup.State(testbed.NICDeviceID) != recovery.Healthy {
		ma.Sim.Run(ma.Sim.Now() + 100*sim.Microsecond)
	}

	ma.Sim.Run(ma.Sim.Now() + cfg.Settle)
	res.RecoveredGbps = measure(cfg.Measure)

	sup.Stop()
	if ma.StopWatchdog != nil {
		ma.StopWatchdog()
	}

	res.DetectPS = detectLatency(sup, stormStart)
	res.MTTRPS = sup.MTTR(testbed.NICDeviceID)
	res.FinalState = sup.State(testbed.NICDeviceID).String()
	res.Storms = sup.Storms
	res.Quarantines = sup.Quarantines
	res.Resets = sup.Resets
	res.ReleasedPages = sup.ReleasedPages
	res.PinnedChunks = sup.PinnedChunks
	res.FaultRecords, res.FaultOverflows, _ = ma.IOMMU.DeviceFaultStats(testbed.NICDeviceID)
	res.ScheduleDigest = ma.Faults.ScheduleDigest()

	res.DamnLiveChunks = -1
	if ma.Damn != nil {
		live, err := ma.Damn.Audit()
		if err != nil {
			return res, fmt.Errorf("workloads: recovery conservation audit: %w", err)
		}
		res.DamnLiveChunks = live
	}
	return res, nil
}

// detectLatency is storm start → first quarantine of the NIC.
func detectLatency(sup *recovery.Supervisor, stormStart sim.Time) sim.Time {
	for _, tr := range sup.Transitions {
		if tr.Dev == testbed.NICDeviceID && tr.To == recovery.Quarantined && tr.At >= stormStart {
			return tr.At - stormStart
		}
	}
	return 0
}
