package workloads

import (
	"fmt"

	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// ChaosConfig describes one chaos run: a normal workload executed on a
// machine whose fault plane injects a randomized-but-deterministic fault
// schedule. The schedule is a pure function of the plane's seed, so any
// failure replays exactly.
type ChaosConfig struct {
	// Machine is the machine under test, built with its fault plane armed;
	// the caller owns it and releases it after reading its stats.
	Machine *testbed.Machine
	// Recovery attaches the fault-domain supervisor, so a chaos run that
	// degrades into a fault storm gets quarantined and healed instead of
	// limping. The supervisor's own work is part of the schedule under
	// test — determinism must survive it.
	Recovery bool
}

// ChaosResult reports what a chaos run survived.
type ChaosResult struct {
	Netperf NetperfResult
	// Injected is the fired-fault count per kind name.
	Injected      map[string]uint64
	InjectedTotal uint64
	// ScheduleDigest folds every injection decision; equal digests mean
	// byte-identical fault schedules.
	ScheduleDigest uint64
	// FaultRecords / FaultOverflows are the IOMMU fault-record queue's
	// counters; ITETimeouts counts invalidation-queue timeouts retried.
	FaultRecords   uint64
	FaultOverflows uint64
	ITETimeouts    uint64
	// DamnLiveChunks is the allocator's live-chunk count after the
	// conservation audit (-1 when the scheme has no DAMN).
	DamnLiveChunks int
	// RecoveryFinal is the NIC's supervisor state at run end, or "off"
	// when no supervisor was attached; RecoveryStorms/RecoveryResets count
	// its interventions.
	RecoveryFinal  string
	RecoveryStorms uint64
	RecoveryResets uint64
}

// ChaosRate is the chaos schedule's uniform per-visit injection
// probability of every fault kind: the chaos figure arms its machines'
// fault planes with it unless a run sets its own rate, and the loss
// figure's chaos column runs under it.
const ChaosRate = 0.002

// chaosWarmup and chaosDuration are the workload's warm-up and measurement
// windows.
const (
	chaosWarmup   = 10 * sim.Millisecond
	chaosDuration = 30 * sim.Millisecond
)

// needFaultPlane rejects a nil machine or one built without a fault plane:
// the runners that take one raise rates on it, filter it by device or
// report its schedule.
func needFaultPlane(ma *testbed.Machine, run string) error {
	if ma == nil {
		return fmt.Errorf("workloads: %s: nil machine", run)
	}
	if ma.Faults == nil {
		return fmt.Errorf("workloads: %s run needs a fault plane (zero rates are fine)", run)
	}
	return nil
}

// stopAndAudit ends a faulted run: it stops the driver's watchdog, which
// re-arms itself every period, and runs DAMN's conservation audit. It
// returns the audit's live-chunk count, -1 when the scheme has no DAMN.
func stopAndAudit(ma *testbed.Machine, run string) (int, error) {
	if ma.StopWatchdog != nil {
		ma.StopWatchdog()
	}
	if ma.Damn == nil {
		return -1, nil
	}
	live, err := ma.Damn.Audit()
	if err != nil {
		return -1, fmt.Errorf("workloads: %s conservation audit: %w", run, err)
	}
	return live, nil
}

// startChaos checks the machine and attaches the supervisor when the config
// asks for it.
func startChaos(cfg *ChaosConfig) (*recovery.Supervisor, error) {
	if err := needFaultPlane(cfg.Machine, "chaos"); err != nil {
		return nil, err
	}
	if !cfg.Recovery {
		return nil, nil
	}
	return recovery.Attach(cfg.Machine), nil
}

// finishChaos stops the supervisor, runs the conservation audit and
// collects the fault plane's evidence.
func finishChaos(ma *testbed.Machine, sup *recovery.Supervisor, res *ChaosResult) error {
	res.RecoveryFinal = "off"
	if sup != nil {
		sup.Stop()
		res.RecoveryFinal = sup.State(testbed.NICDeviceID).String()
		res.RecoveryStorms = sup.Storms
		res.RecoveryResets = sup.Resets
	}
	var err error
	if res.DamnLiveChunks, err = stopAndAudit(ma, "chaos"); err != nil {
		return err
	}
	res.Injected = ma.Faults.Counts()
	res.InjectedTotal = ma.Faults.InjectedTotal()
	res.ScheduleDigest = ma.Faults.ScheduleDigest()
	res.FaultRecords, res.FaultOverflows = ma.IOMMU.FaultQueueStats()
	res.ITETimeouts = ma.IOMMU.InvQ().ITETimeouts
	return nil
}

// RunChaosNetperf runs a bidirectional netperf under the fault schedule:
// every RX and TX path of the stack — wire, DMA translation, invalidation,
// allocation, completion delivery — takes deterministic hits while the
// degradation paths keep the machine alive. Half the machine's cores
// receive and half send. The run fails only if a layer panics or the
// allocator's conservation invariants break.
func RunChaosNetperf(cfg ChaosConfig) (ChaosResult, error) {
	sup, err := startChaos(&cfg)
	if err != nil {
		return ChaosResult{}, err
	}
	ma := cfg.Machine
	rx, tx := splitCores(len(ma.Cores))
	var res ChaosResult
	res.Netperf, err = RunNetperf(NetperfConfig{
		Machine:  ma,
		RXCores:  rx,
		TXCores:  tx,
		Duration: chaosDuration,
		Warmup:   chaosWarmup,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	if err := finishChaos(ma, sup, &res); err != nil {
		return res, err
	}
	return res, nil
}

// ChaosMemcachedResult pairs the workload row with the fault evidence.
type ChaosMemcachedResult struct {
	Memcached MemcachedResult
	ChaosResult
}

// RunChaosMemcached runs the memcached request/response workload under the
// fault schedule — the RX-and-TX-coupled flow where a lost completion stalls
// a memslap slot until the watchdog reaps it.
func RunChaosMemcached(cfg ChaosConfig) (ChaosMemcachedResult, error) {
	sup, err := startChaos(&cfg)
	if err != nil {
		return ChaosMemcachedResult{}, err
	}
	ma := cfg.Machine
	var res ChaosMemcachedResult
	res.Memcached, err = RunMemcached(MemcachedConfig{
		Machine:  ma,
		Duration: chaosDuration,
		Warmup:   chaosWarmup,
	})
	if err != nil {
		return ChaosMemcachedResult{}, err
	}
	if err := finishChaos(ma, sup, &res.ChaosResult); err != nil {
		return res, err
	}
	return res, nil
}
