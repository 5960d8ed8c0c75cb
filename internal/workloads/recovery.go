package workloads

import (
	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// RecoveryConfig describes one recovery experiment: a bidirectional netperf
// that reaches steady state, suffers a scheduled DMA-fault storm, and is
// healed by the fault-domain supervisor. Every phase boundary is a fixed
// simulated time and the storm is drawn from the machine's seeded fault
// plane, so the whole trajectory — dip, detection, quarantine, reset,
// recovery — replays byte-identically from the machine's scheme and fault
// seed.
type RecoveryConfig struct {
	// Machine runs the experiment. It must carry a fault plane, armed with
	// every rate at zero: the storm is the only injected failure, raised
	// and lowered by scheduled events. Half its cores receive, half send.
	Machine *testbed.Machine
	// Warmup precedes the steady-state measurement (default 10 ms).
	Warmup sim.Time
	// Steady is the pre-storm measurement window (default 15 ms).
	Steady sim.Time
	// Measure is the post-recovery measurement window (default 15 ms).
	Measure sim.Time
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
	if cfg.Warmup == 0 {
		cfg.Warmup = 10 * sim.Millisecond
	}
	if cfg.Steady == 0 {
		cfg.Steady = 15 * sim.Millisecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 15 * sim.Millisecond
	}
}

const (
	// recoveryStormRate is the per-translation fault probability during
	// the storm: a sick device, not a flaky link.
	recoveryStormRate float64 = 0.5
	// recoveryStormLen is how long the DMA-fault rate stays raised.
	recoveryStormLen = 2 * sim.Millisecond
	// recoveryDeadline bounds how long the run waits for the device to
	// return to Healthy after the storm ends.
	recoveryDeadline = 50 * sim.Millisecond
	// recoverySettle separates recovery from the recovered-throughput
	// measurement.
	recoverySettle = 3 * sim.Millisecond
)

// RunRecovery executes the storm-and-heal experiment and returns its row.
func RunRecovery(cfg RecoveryConfig) (RecoveryResult, error) {
	ma := cfg.Machine
	if err := needFaultPlane(ma, "recovery"); err != nil {
		return RecoveryResult{}, err
	}
	cfg.defaults()
	sup := recovery.Attach(ma)

	// Bidirectional netperf: half the cores receive, half send.
	rx, tx := splitCores(len(ma.Cores))
	tr, err := startNetperf(NetperfConfig{Machine: ma, RXCores: rx, TXCores: tx})
	if err != nil {
		return RecoveryResult{}, err
	}
	// A quarantine stalls sender pumps on Transmit errors with no
	// completion left to restart them; the supervisor kicks them awake.
	sup.OnRecovered = func(dev int) {
		if dev != testbed.NICDeviceID {
			return
		}
		for _, s := range tr.senders {
			s.Kick()
		}
	}

	bytesNow := func() uint64 { return receivedBytes(tr.receivers) + sentBytes(tr.senders) }
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
	ma.Faults.SetRate(faults.DMAFault, recoveryStormRate)
	ma.Sim.At(stormStart+recoveryStormLen, func() {
		ma.Faults.SetRate(faults.DMAFault, 0)
	})
	res.StormGbps = measure(recoveryStormLen)

	// Step deterministically until the supervisor heals the device (or the
	// deadline expires and the row reports the terminal state).
	deadline := ma.Sim.Now() + recoveryDeadline
	for ma.Sim.Now() < deadline && sup.State(testbed.NICDeviceID) != recovery.Healthy {
		ma.Sim.Run(ma.Sim.Now() + 100*sim.Microsecond)
	}

	ma.Sim.Run(ma.Sim.Now() + recoverySettle)
	res.RecoveredGbps = measure(cfg.Measure)

	sup.Stop()
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
	res.DamnLiveChunks, err = stopAndAudit(ma, "recovery")
	return res, err
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
