package workloads

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// ChaosConfig describes one chaos run: a normal workload executed under a
// randomized-but-deterministic fault schedule. The schedule is a pure
// function of FaultSeed, so any failure replays exactly.
type ChaosConfig struct {
	// FaultSeed roots every fault kind's random stream.
	FaultSeed int64
	// Rates is each fault kind's per-visit injection probability; nil
	// applies ChaosRate to every kind.
	Rates map[faults.Kind]float64
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
	// Snapshot is the machine's full metrics state at run end.
	Snapshot stats.Snapshot
}

// ChaosRate is the chaos schedule's uniform per-visit injection
// probability of every fault kind: the chaos harness applies it when
// ChaosConfig.Rates is nil, and the loss figure's chaos column runs under
// it.
const ChaosRate = 0.002

const (
	// chaosCores is the machine's core count: chaos runs favour
	// iteration speed over fidelity to the 28-core testbed.
	chaosCores int = 4
	// chaosWarmup and chaosDuration are the workload's warm-up and
	// measurement windows.
	chaosWarmup   = 10 * sim.Millisecond
	chaosDuration = 30 * sim.Millisecond
)

// faultConfig builds the machine's fault plane from the chaos config.
func (cfg *ChaosConfig) faultConfig() *faults.Config {
	rates := cfg.Rates
	if rates == nil {
		rates = faults.UniformRates(ChaosRate)
	}
	return &faults.Config{Seed: cfg.FaultSeed, Rates: rates}
}

// newChaosMachine assembles the machine under test with injection armed.
// Chaos runs DAMN, the configuration with the deepest degradation chain:
// depot → bump → slow path → ErrNoMemory.
func newChaosMachine(cfg *ChaosConfig) (*testbed.Machine, error) {
	return testbed.NewMachine(testbed.MachineConfig{
		Scheme: testbed.SchemeDAMN,
		Cores:  chaosCores,
		Faults: cfg.faultConfig(),
	})
}

// attachChaosRecovery arms the supervisor when the config asks for it.
func attachChaosRecovery(cfg *ChaosConfig, ma *testbed.Machine) *recovery.Supervisor {
	if !cfg.Recovery {
		return nil
	}
	return recovery.Attach(ma)
}

// finish stops the watchdog and supervisor, runs the conservation audit and
// collects the fault plane's evidence.
func finishChaos(ma *testbed.Machine, sup *recovery.Supervisor, res *ChaosResult) error {
	res.RecoveryFinal = "off"
	if sup != nil {
		sup.Stop()
		res.RecoveryFinal = sup.State(testbed.NICDeviceID).String()
		res.RecoveryStorms = sup.Storms
		res.RecoveryResets = sup.Resets
	}
	if ma.StopWatchdog != nil {
		ma.StopWatchdog()
	}
	res.DamnLiveChunks = -1
	if ma.Damn != nil {
		live, err := ma.Damn.Audit()
		if err != nil {
			return fmt.Errorf("workloads: chaos conservation audit: %w", err)
		}
		res.DamnLiveChunks = live
	}
	res.Injected = ma.Faults.Counts()
	res.InjectedTotal = ma.Faults.InjectedTotal()
	res.ScheduleDigest = ma.Faults.ScheduleDigest()
	res.FaultRecords, res.FaultOverflows = ma.IOMMU.FaultQueueStats()
	res.ITETimeouts = ma.IOMMU.InvQ().ITETimeouts
	res.Snapshot = ma.StatsSnapshot()
	return nil
}

// RunChaosNetperf runs a bidirectional netperf under the fault schedule:
// every RX and TX path of the stack — wire, DMA translation, invalidation,
// allocation, completion delivery — takes deterministic hits while the
// degradation paths keep the machine alive. The run fails only if a layer
// panics or the allocator's conservation invariants break.
func RunChaosNetperf(cfg ChaosConfig) (ChaosResult, error) {
	ma, err := newChaosMachine(&cfg)
	if err != nil {
		return ChaosResult{}, err
	}
	defer ma.Close() // after finishChaos has read it
	sup := attachChaosRecovery(&cfg, ma)
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
	ma, err := newChaosMachine(&cfg)
	if err != nil {
		return ChaosMemcachedResult{}, err
	}
	defer ma.Close() // after finishChaos has read it
	sup := attachChaosRecovery(&cfg, ma)
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
