package workloads

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// runChaos runs RunChaosNetperf on the chaos figure's machine — DAMN, four
// cores, engine seed 0 — with its fault plane rooted at seed, and returns
// the result and the machine's final metrics.
func runChaos(t *testing.T, seed int64, rates map[faults.Kind]float64, supervised bool) (ChaosResult, stats.Snapshot) {
	t.Helper()
	ma := faultMachine(t, testbed.SchemeDAMN, 4, seed, rates)
	defer ma.Close()
	res, err := RunChaosNetperf(ChaosConfig{Machine: ma, Recovery: supervised})
	if err != nil {
		t.Fatal(err)
	}
	return res, ma.StatsSnapshot()
}

// TestChaosSeedReplay: the defining property of the fault plane — the same
// seed replays a byte-identical fault schedule, so two runs agree on every
// decision (digest), every count, the workload result and the entire final
// metrics state.
func TestChaosSeedReplay(t *testing.T) {
	a, snapA := runChaos(t, 42, faults.UniformRates(0.003), false)
	b, snapB := runChaos(t, 42, faults.UniformRates(0.003), false)
	if a.ScheduleDigest != b.ScheduleDigest {
		t.Fatalf("fault schedules diverged: digest %#x vs %#x", a.ScheduleDigest, b.ScheduleDigest)
	}
	if !reflect.DeepEqual(a.Injected, b.Injected) {
		t.Fatalf("injected counts diverged:\n%v\n%v", a.Injected, b.Injected)
	}
	if a.Netperf != b.Netperf {
		t.Fatalf("workload results diverged:\n%+v\n%+v", a.Netperf, b.Netperf)
	}
	if !reflect.DeepEqual(snapA, snapB) {
		t.Fatal("final stats snapshots diverged between identical seeds")
	}
}

// TestChaosSeedsDiverge: different seeds must produce different schedules —
// otherwise the seed isn't reaching the streams.
func TestChaosSeedsDiverge(t *testing.T) {
	a, _ := runChaos(t, 1, faults.UniformRates(0.003), false)
	b, _ := runChaos(t, 2, faults.UniformRates(0.003), false)
	if a.InjectedTotal == 0 || b.InjectedTotal == 0 {
		t.Fatalf("expected faults to fire: %d and %d", a.InjectedTotal, b.InjectedTotal)
	}
	if a.ScheduleDigest == b.ScheduleDigest {
		t.Fatalf("different seeds produced identical schedule digest %#x", a.ScheduleDigest)
	}
}

// TestChaosNetperfSurvivesFaults: under an aggressive uniform schedule the
// run must complete without a panic, keep moving traffic, fire every
// injectable fault kind at least once in aggregate, pass the allocator's
// conservation audit, and expose the per-kind counters via the registry.
func TestChaosNetperfSurvivesFaults(t *testing.T) {
	res, snap := runChaos(t, 7, faults.UniformRates(0.01), false)
	if res.Netperf.TotalGbps <= 0 {
		t.Fatalf("machine stopped moving traffic under faults: %+v", res.Netperf)
	}
	if res.InjectedTotal == 0 {
		t.Fatal("no faults fired at rate 0.01")
	}
	// Every kind on the netperf path should have fired at this rate. fio's
	// storage path isn't exercised here, but all kinds share the NIC/DMA/
	// alloc fault points so they all see visits.
	for _, k := range faults.Kinds {
		if res.Injected[k.String()] == 0 {
			t.Errorf("fault kind %s never fired (visits missing?): %s", k, k)
		}
	}
	// The degradation paths must be observable: injected DMA faults land in
	// the IOMMU's fault-record queue, ITEs are retried, and the registry
	// mirrors the injector's counts.
	if res.FaultRecords == 0 {
		t.Error("no IOMMU fault records despite injected DMA faults")
	}
	if res.ITETimeouts == 0 {
		t.Error("no ITE timeouts recorded despite injected invalidation timeouts")
	}
	if res.DamnLiveChunks < 0 {
		t.Error("DAMN scheme should run the conservation audit")
	}
	for _, k := range faults.Kinds {
		key := "faults/injected_" + k.String()
		if snap.Counters[key] != res.Injected[k.String()] {
			t.Errorf("registry counter %s=%d disagrees with injector %d",
				key, snap.Counters[key], res.Injected[k.String()])
		}
	}
}

// TestChaosZeroRateMatchesBaseline: arming the fault plane with all rates
// zero must not change the workload numbers — the injection points and the
// watchdog are free when nothing fires.
func TestChaosZeroRateMatchesBaseline(t *testing.T) {
	chaos, _ := runChaos(t, 9, faults.UniformRates(0), false)
	ma, err := testbed.NewMachine(testbed.MachineConfig{Scheme: testbed.SchemeDAMN, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	base, err := RunNetperf(NetperfConfig{
		Machine: ma,
		RXCores: []int{0, 1}, TXCores: []int{2, 3},
		Duration: 30 * sim.Millisecond,
		Warmup:   10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if chaos.InjectedTotal != 0 {
		t.Fatalf("rate 0 fired %d faults", chaos.InjectedTotal)
	}
	if chaos.Netperf != base {
		t.Fatalf("zero-rate chaos run differs from fault-free baseline:\n%+v\n%+v",
			chaos.Netperf, base)
	}
}

// TestChaosScheduleGolden pins the exact fault schedules of two chaos runs.
// A digest, count or throughput change here means the per-kind RNG streams
// shifted or the draw order on the injection path changed — both break
// replay of every recorded -faults run.
func TestChaosScheduleGolden(t *testing.T) {
	for _, g := range []struct {
		seed     int64
		rate     float64
		digest   uint64
		injected uint64
		gbps     float64
	}{
		{42, 0.003, 0x10e43791e6f66421, 1042, 195.96137813333334},
		{7, 0.01, 0x57be0b3e12e9214d, 3498, 191.6796928},
	} {
		res, _ := runChaos(t, g.seed, faults.UniformRates(g.rate), false)
		if res.ScheduleDigest != g.digest {
			t.Errorf("seed=%d rate=%v: digest %#x, want %#x (fault streams shifted)",
				g.seed, g.rate, res.ScheduleDigest, g.digest)
		}
		if res.InjectedTotal != g.injected {
			t.Errorf("seed=%d rate=%v: injected %d, want %d",
				g.seed, g.rate, res.InjectedTotal, g.injected)
		}
		if res.Netperf.TotalGbps != g.gbps {
			t.Errorf("seed=%d rate=%v: %.7f Gb/s, want %.7f",
				g.seed, g.rate, res.Netperf.TotalGbps, g.gbps)
		}
	}
}

// TestChaosThroughputDegradesGracefully: more injected faults may only cost
// throughput, never wedge the machine; the decline must be graceful, not a
// cliff to zero.
func TestChaosThroughputDegradesGracefully(t *testing.T) {
	rates := []float64{0, 0.003, 0.03}
	gbps := make([]float64, len(rates))
	for i, r := range rates {
		res, _ := runChaos(t, 11, faults.UniformRates(r), false)
		gbps[i] = res.Netperf.TotalGbps
		if gbps[i] <= 0 {
			t.Fatalf("rate %v: machine wedged (%.3f Gb/s)", r, gbps[i])
		}
	}
	// Monotone within tolerance: injected faults cost retries, drops and
	// watchdog recoveries, so throughput must not *rise* with the rate
	// (small scheduling noise gets 2% slack).
	const slack = 1.02
	for i := 1; i < len(gbps); i++ {
		if gbps[i] > gbps[i-1]*slack {
			t.Errorf("throughput rose with fault rate: %.3f Gb/s at %v vs %.3f Gb/s at %v",
				gbps[i], rates[i], gbps[i-1], rates[i-1])
		}
	}
	if gbps[len(gbps)-1] < gbps[0]*0.10 {
		t.Errorf("degradation is a cliff, not graceful: %.3f -> %.3f Gb/s", gbps[0], gbps[len(gbps)-1])
	}
}

// TestChaosMemcachedSurvivesFaults: the request/response workload couples RX
// to TX, so a lost completion stalls a memslap slot until the watchdog reaps
// it — the run must keep serving ops and pass the audit.
func TestChaosMemcachedSurvivesFaults(t *testing.T) {
	ma := faultMachine(t, testbed.SchemeDAMN, 4, 13, faults.UniformRates(0.005))
	defer ma.Close()
	res, err := RunChaosMemcached(ChaosConfig{Machine: ma})
	if err != nil {
		t.Fatal(err)
	}
	if res.Memcached.TPS <= 0 {
		t.Fatalf("memcached stopped serving under faults: %+v", res.Memcached)
	}
	if res.InjectedTotal == 0 {
		t.Fatal("no faults fired")
	}
}

// TestUnmapFailureReleasesDamnBuffers is the unmap-quarantine regression:
// when dma_unmap fails on a DAMN RX buffer, the driver must release the
// buffer back to the allocator (its chunk-owned mapping is unaffected by
// the per-DMA unmap) instead of quarantining it — otherwise a long-lived
// machine leaks a chunk per failure and the conservation audit pins them
// forever.
func TestUnmapFailureReleasesDamnBuffers(t *testing.T) {
	res, snap := runChaos(t, 5, map[faults.Kind]float64{faults.UnmapFail: 0.05}, false)
	errs := snap.Counter("netstack/rx_unmap_errors")
	released := snap.Counter("netstack/rx_unmap_released")
	if errs == 0 {
		t.Fatal("no unmap failures injected; regression not exercised")
	}
	// Every RX buffer under SchemeDAMN is a DAMN buffer, so every failed
	// unmap must have released its buffer rather than leaking it.
	if released != errs {
		t.Fatalf("released %d of %d failed unmaps; the rest leaked", released, errs)
	}
	if res.DamnLiveChunks < 0 {
		t.Fatal("no DAMN audit ran")
	}
	if res.Netperf.TotalGbps <= 0 {
		t.Fatal("workload made no progress under unmap failures")
	}
}

// TestChaosWithRecoverySupervised: chaos with the fault-domain supervisor
// attached. A DMA-fault-heavy schedule must trip the storm detector and the
// supervisor must intervene; the supervisor's own work is part of the
// schedule under test, so two identical runs must still agree on every
// decision and on the recovery evidence.
func TestChaosWithRecoverySupervised(t *testing.T) {
	storm := map[faults.Kind]float64{faults.DMAFault: 0.3}
	a, _ := runChaos(t, 9, storm, true)
	if a.RecoveryFinal == "off" {
		t.Fatal("Recovery: true attached no supervisor")
	}
	if a.RecoveryStorms == 0 || a.RecoveryResets == 0 {
		t.Errorf("storm-heavy schedule never tripped the supervisor: %+v", a)
	}
	if a.DamnLiveChunks < 0 {
		t.Error("no DAMN audit ran")
	}
	b, _ := runChaos(t, 9, storm, true)
	if a.RecoveryFinal != b.RecoveryFinal || a.RecoveryStorms != b.RecoveryStorms ||
		a.RecoveryResets != b.RecoveryResets || a.ScheduleDigest != b.ScheduleDigest {
		t.Errorf("supervised chaos runs diverge:\n a=%+v\n b=%+v", a, b)
	}
}

// TestFaultRunnersRejectMachines: the runners that take a faulted machine
// refuse a nil machine and one built without a fault plane, and the
// tenants experiment refuses a machine without two cores per tenant,
// before they touch the machine.
func TestFaultRunnersRejectMachines(t *testing.T) {
	plain, err := testbed.NewMachine(testbed.MachineConfig{Scheme: testbed.SchemeDAMN, MemBytes: 64 << 20, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	faulted, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: testbed.SchemeDAMN, MemBytes: 64 << 20, Cores: 4, Faults: &faults.Config{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulted.Close()
	tenants := func(n int) func(*testbed.Machine) error {
		return func(ma *testbed.Machine) error {
			_, err := RunTenants(TenantsConfig{Machine: ma, Tenants: n})
			return err
		}
	}
	runners := []struct {
		name string
		run  func(*testbed.Machine) error
	}{
		{"chaos-netperf", func(ma *testbed.Machine) error {
			_, err := RunChaosNetperf(ChaosConfig{Machine: ma})
			return err
		}},
		{"chaos-memcached", func(ma *testbed.Machine) error {
			_, err := RunChaosMemcached(ChaosConfig{Machine: ma})
			return err
		}},
		{"recovery", func(ma *testbed.Machine) error {
			_, err := RunRecovery(RecoveryConfig{Machine: ma})
			return err
		}},
		{"tenants", tenants(2)},
	}
	for _, r := range runners {
		for _, c := range []struct {
			name string
			ma   *testbed.Machine
		}{{"nil", nil}, {"no-fault-plane", plain}} {
			if err := r.run(c.ma); err == nil {
				t.Errorf("%s accepted a %s machine", r.name, c.name)
			}
		}
	}
	for _, n := range []int{0, 1, 3} {
		if err := tenants(n)(faulted); err == nil {
			t.Errorf("tenants: %d tenants accepted a 4-core machine", n)
		}
	}
	if faulted.Sim.Now() != 0 || plain.Sim.Now() != 0 {
		t.Error("a rejected run advanced its machine")
	}
}
