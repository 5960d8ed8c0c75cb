package workloads

import (
	"fmt"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/tenant"
	"github.com/asplos18/damn/internal/testbed"
)

// TenantsConfig describes one multi-tenant experiment: N tenants share one
// protected NIC, each with its own virtual function (IOMMU domain + DAMN
// generation), an RX/TX ring pair, capability-gated buffer handoff and a
// weighted fair share of the PCIe ceiling. The run measures a clean phase
// (per-tenant goodput, Jain's fairness index), then — if Attack is set —
// compromises tenant 0 with the full hostile repertoire (forged
// capabilities, DMA probes into sibling IOVA ranges, a DMA-fault storm)
// and measures the blast radius on its neighbours while the containment
// ladder runs. Every phase boundary is a fixed simulated time, so the
// whole trajectory replays byte-identically from (Scheme, Tenants, Seed).
type TenantsConfig struct {
	Scheme  testbed.Scheme
	Tenants int
	// FaultSeed seeds the fault plane (the attack storm's randomness).
	FaultSeed int64
	// Warmup precedes the clean measurement (default 5 ms).
	Warmup sim.Time
	// Measure is the clean-phase measurement window (default 10 ms).
	Measure sim.Time
	// Attack enables the compromised-tenant phase.
	Attack bool
	// AttackLen is the hostile window (default 10 ms; the victim-goodput
	// measurement spans exactly this window).
	AttackLen sim.Time
	// StormRate is the attacker VF's DMA-fault probability (default 0.5).
	StormRate float64
	// ProbeEvery is the neighbour-probe cadence (default 20 µs).
	ProbeEvery sim.Time
	// SettleDeadline bounds the post-attack wait for the ladder to settle
	// (default 20 ms).
	SettleDeadline sim.Time
	// Manager tunes the containment ladder (zero = defaults).
	Manager tenant.Config
	// Supervisor tunes the recovery supervisor the manager is wired
	// through (zero = defaults).
	Supervisor recovery.Config
	// OnMachine, when non-nil, observes the finished machine (the figure
	// uses it to export the stats snapshot, per-tenant counters included).
	// RunTenants closes the machine when it returns, so the hook must not
	// keep it.
	OnMachine func(*testbed.Machine)
}

// TenantsResult is one row of the tenants figure.
type TenantsResult struct {
	Scheme  string
	Tenants int

	// Clean phase.
	CleanGbps    []float64 // per tenant
	AggGbps      float64
	JainIndex    float64
	FairDelaysPS []int64 // cumulative admission delay per tenant

	// Attack phase (zero-valued when Attack is off).
	Attacked         bool
	VictimGbps       []float64 // per surviving tenant (index 0 is tenant 1)
	VictimRatioMin   float64   // worst victim attack/clean goodput ratio
	VictimRatioMean  float64
	AttackerState    string
	AttackerQuar     int
	Evictions        uint64
	ProbesBlocked    uint64
	ProbesLanded     int
	CapChecks        uint64
	CapDenials       uint64
	CapRevocations   uint64
	CrossTenantRecs  uint64 // fault records attributed to victim VFs
	ReleasedPages    int64
	PinnedChunks     int
	RxWrongCoreByTen []uint64

	// Conservation and determinism evidence.
	DamnLiveChunks int
	ScheduleDigest uint64
}

func (cfg *TenantsConfig) defaults() {
	if cfg.Scheme == "" {
		cfg.Scheme = testbed.SchemeDAMN
	}
	if cfg.Tenants == 0 {
		cfg.Tenants = 4
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 5 * sim.Millisecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 10 * sim.Millisecond
	}
	if cfg.AttackLen == 0 {
		cfg.AttackLen = 10 * sim.Millisecond
	}
	if cfg.StormRate == 0 {
		cfg.StormRate = 0.5
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = 20 * sim.Microsecond
	}
	if cfg.SettleDeadline == 0 {
		cfg.SettleDeadline = 20 * sim.Millisecond
	}
}

// RunTenants executes the multi-tenant experiment and returns its row.
func RunTenants(cfg TenantsConfig) (TenantsResult, error) {
	cfg.defaults()
	nT := cfg.Tenants
	// Each tenant owns one RX ring (cores 0..N-1) and one TX ring (cores
	// N..2N-1), the same bidirectional split as the recovery harness.
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: cfg.Scheme,
		Cores:  2 * nT,
		Faults: &faults.Config{Seed: cfg.FaultSeed, Rates: map[faults.Kind]float64{}},
	})
	if err != nil {
		return TenantsResult{}, err
	}
	defer ma.Close() // after OnMachine, the machine's last reader
	mgr := tenant.Attach(ma, cfg.Manager)
	sup := recovery.Attach(ma, cfg.Supervisor)
	// The supervisor owns the single-consumer fault-record ring; records
	// attributed to tenant VFs (not supervisor-managed devices) are
	// forwarded into the containment windows.
	sup.OnForeignRecord = mgr.BindSupervisor()

	tens := make([]*tenant.Tenant, nT)
	for i := 0; i < nT; i++ {
		tens[i], err = mgr.AddTenant(i, 1, []int{i, nT + i})
		if err != nil {
			return TenantsResult{}, err
		}
	}
	// Rings fill after tenancy is set up so every buffer is allocated and
	// mapped under its owner VF's identity (per-tenant DAMN generations).
	if err := ma.FillAllRings(); err != nil {
		return TenantsResult{}, err
	}

	receivers := make(map[int]*netstack.Receiver, nT)
	gens := make([]*Generator, nT)
	senders := make([]*netstack.Sender, nT)
	for i := 0; i < nT; i++ {
		flow := i + 1
		receivers[flow] = &netstack.Receiver{K: ma.Kernel, AckCost: true}
		g, err := NewGenerator(ma, i%ma.Model.NICPorts, i, flow, ma.Model.SegmentSize)
		if err != nil {
			return TenantsResult{}, err
		}
		gens[i] = g
		senders[i] = &netstack.Sender{
			K: ma.Kernel, Drv: ma.Driver, Core: ma.Cores[nT+i],
			Ring: nT + i, PortID: i % ma.Model.NICPorts, Flow: 1000 + i,
			Dev: tenant.DevOf(i), AckCost: true,
		}
	}
	ma.Driver.OnDeliver = netstack.DemuxFlows(receivers)
	for _, g := range gens {
		g.Start()
	}
	for _, s := range senders {
		s.Start()
	}

	tenantBytes := func(i int) uint64 {
		return receivers[i+1].Bytes + senders[i].Bytes
	}
	measure := func(dur sim.Time) []float64 {
		b0 := make([]uint64, nT)
		for i := range b0 {
			b0[i] = tenantBytes(i)
		}
		w := ma.OpenWindow()
		ma.Sim.Run(ma.Sim.Now() + dur)
		m := w.Close()
		out := make([]float64, nT)
		for i := range out {
			out[i] = m.Gbps(tenantBytes(i) - b0[i])
		}
		return out
	}

	res := TenantsResult{Scheme: ma.SchemeName(), Tenants: nT}

	ma.Sim.Run(cfg.Warmup)
	res.CleanGbps = measure(cfg.Measure)
	for _, g := range res.CleanGbps {
		res.AggGbps += g
	}
	res.JainIndex = jain(res.CleanGbps)
	res.FairDelaysPS = make([]int64, nT)
	for i := range res.FairDelaysPS {
		res.FairDelaysPS[i] = int64(mgr.Fair().DelayFor(i))
	}

	if cfg.Attack && nT > 1 {
		res.Attacked = true
		attackerDev := tenant.DevOf(0)
		mal := device.NewMalicious(ma.IOMMU, attackerDev)

		// The compromise, all at once: forged capabilities on both of the
		// attacker's rings, a neighbour-probe loop sweeping sibling IOVA
		// ranges, and a DMA-fault storm filtered to the attacker's VF so
		// no neighbour's fault schedule is perturbed.
		mgr.Table().Present(0, tenant.Handle{Tenant: 0, Epoch: ^uint32(0)})
		mgr.Table().Present(nT, tenant.Handle{Tenant: nT + 7})
		ma.Faults.SetDeviceFilter(faults.DMAFault, attackerDev)
		ma.Faults.SetRate(faults.DMAFault, cfg.StormRate)
		probeVictim := 0
		stopProbes := ma.Sim.Every(cfg.ProbeEvery, func() {
			probeVictim = probeVictim%(nT-1) + 1 // rotate over victims
			_, l := mal.ProbeNeighbor(tenant.DevOf(probeVictim), 2, 4)
			res.ProbesLanded += l
			// The no-protection counterfactual: under passthrough domains
			// the attacker reads arbitrary physical memory directly; with
			// per-tenant domains the same reads fault in its own domain.
			for p := 0; p < 2; p++ {
				v := iommu.IOVA(1<<20 + p*4096)
				if _, err := mal.TryRead(v, 64); err == nil {
					res.ProbesLanded++
				}
			}
		})
		attackEnd := ma.Sim.Now() + cfg.AttackLen
		ma.Sim.At(attackEnd, func() {
			ma.Faults.SetRate(faults.DMAFault, 0)
			ma.Faults.SetDeviceFilter(faults.DMAFault, -1)
		})

		victims := measure(cfg.AttackLen)[1:]
		stopProbes()
		res.VictimGbps = victims
		res.VictimRatioMin = 1e18
		for i, v := range victims {
			r := 0.0
			if c := res.CleanGbps[i+1]; c > 0 {
				r = v / c
			}
			if r < res.VictimRatioMin {
				res.VictimRatioMin = r
			}
			res.VictimRatioMean += r
		}
		res.VictimRatioMean /= float64(len(victims))

		// Let the ladder settle (the attacker should be in containment).
		deadline := ma.Sim.Now() + cfg.SettleDeadline
		for ma.Sim.Now() < deadline {
			s := tens[0].State()
			if s == tenant.Quarantined || s == tenant.Evicted {
				break
			}
			ma.Sim.Run(ma.Sim.Now() + 100*sim.Microsecond)
		}

		res.AttackerState = tens[0].State().String()
		res.AttackerQuar = tens[0].Quarantines()
		res.Evictions = mgr.Evictions
		_, _, res.ProbesBlocked = ma.IOMMU.DeviceFaultStats(attackerDev)
		res.CapChecks = mgr.Table().Checks
		res.CapDenials = mgr.Table().Denials
		res.CapRevocations = mgr.Table().Revocations
		for i := 1; i < nT; i++ {
			rec, _, _ := ma.IOMMU.DeviceFaultStats(tenant.DevOf(i))
			res.CrossTenantRecs += rec
		}
		res.ReleasedPages = mgr.ReleasedPages
		res.PinnedChunks = mgr.PinnedChunks
		res.RxWrongCoreByTen = make([]uint64, nT)
		for i := range res.RxWrongCoreByTen {
			res.RxWrongCoreByTen[i] = ma.Driver.RxWrongCoreFor(i)
		}
	}

	mgr.Stop()
	sup.Stop()
	if ma.StopWatchdog != nil {
		ma.StopWatchdog()
	}

	res.ScheduleDigest = ma.Faults.ScheduleDigest()
	res.DamnLiveChunks = -1
	if ma.Damn != nil {
		live, err := ma.Damn.Audit()
		if err != nil {
			return res, fmt.Errorf("workloads: tenants conservation audit: %w", err)
		}
		res.DamnLiveChunks = live
	}
	if cfg.OnMachine != nil {
		cfg.OnMachine(ma)
	}
	return res, nil
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) — 1.0 is perfectly
// fair, 1/n is one tenant hogging everything.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
