package tenant_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/tenant"
	"github.com/asplos18/damn/internal/testbed"
)

func newMachine(t *testing.T) *testbed.Machine {
	t.Helper()
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		MemBytes: 64 << 20,
		Cores:    2,
		Faults:   &faults.Config{Seed: 1, Rates: map[faults.Kind]float64{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ma.Close)
	return ma
}

// TestCapabilityTable exercises grant, forge, revoke and re-grant on the
// capability fast path, including per-tenant denial attribution and the
// unowned-ring bypass.
func TestCapabilityTable(t *testing.T) {
	tab := tenant.NewTable(4)
	tab.AssignRing(0, 0)
	tab.AssignRing(1, 1)

	if !tab.CheckRing(0) || !tab.CheckRing(1) {
		t.Fatal("freshly granted capabilities must validate")
	}
	// Forgery: tenant 1's identity presented on tenant 0's ring.
	tab.Present(0, tenant.Handle{Tenant: 1})
	if tab.CheckRing(0) {
		t.Error("forged handle validated")
	}
	if got := tab.DenialsFor(0); got != 1 {
		t.Errorf("denial attributed to ring owner: got %d, want 1", got)
	}
	if got := tab.DenialsFor(1); got != 0 {
		t.Errorf("denial leaked to tenant 1: got %d", got)
	}
	// Stale: a revoked epoch stops validating without any per-ring sweep.
	tab.Present(0, tab.Grant(0))
	if !tab.CheckRing(0) {
		t.Fatal("re-presented valid handle must validate")
	}
	tab.Revoke(0)
	if tab.CheckRing(0) {
		t.Error("revoked handle validated")
	}
	if tab.Revocations != 1 {
		t.Errorf("Revocations = %d, want 1", tab.Revocations)
	}
	// Re-grant after revocation restores the ring.
	tab.AssignRing(0, 0)
	if !tab.CheckRing(0) {
		t.Error("re-granted handle must validate")
	}
	// Unowned rings pass and are never counted.
	checks := tab.Checks
	if !tab.CheckRing(3) {
		t.Error("unowned ring must pass")
	}
	if tab.Checks != checks {
		t.Error("unowned ring check was counted")
	}
}

// TestFairShareWeights verifies the weighted split of the ceiling, burst
// forgiveness, overdraw delay, and the throttle fraction.
func TestFairShareWeights(t *testing.T) {
	const ceiling = 1e9 // bytes/s
	f := tenant.NewFairShare(4, ceiling, 0.25)
	f.AddTenant(0, 1, []int{0}, 0)
	f.AddTenant(1, 3, []int{1}, 0)

	// Within burst (100 µs of rate): free.
	if d := f.AdmitDMA(0, 1500, 0); d != 0 {
		t.Errorf("burst-sized DMA delayed by %d ps", d)
	}
	// Overdraw tenant 0's bucket (rate 0.25e9 B/s, burst 25 kB): a 1 MB
	// transfer must pay roughly its wire time at the tenant's rate.
	d := f.AdmitDMA(0, 1<<20, 0)
	wantPS := float64(1<<20-25000+1500) / 0.25e9 * 1e12
	if math.Abs(float64(d)-wantPS) > wantPS*0.05 {
		t.Errorf("overdraw delay %d ps, want ~%.0f ps", d, wantPS)
	}
	// Tenant 1 has 3x the weight: same overdraw costs a third.
	d1 := f.AdmitDMA(1, 1<<20, 0)
	if d1 <= 0 || d1 >= d {
		t.Errorf("heavier tenant must pay less: t0=%d t1=%d", d, d1)
	}
	// Unowned ring: never paced.
	if d := f.AdmitDMA(2, 1<<30, 0); d != 0 {
		t.Errorf("unowned ring paced by %d ps", d)
	}
	// Throttle quarters the refill rate.
	f.Throttle(0, true)
	before := f.DelayFor(0)
	dThrottled := f.AdmitDMA(0, 1<<20, sim.Time(10*sim.Millisecond))
	if dThrottled <= d {
		t.Errorf("throttled overdraw %d must exceed healthy %d", dThrottled, d)
	}
	if f.DelayFor(0) <= before {
		t.Error("delay evidence not accumulated")
	}
}

// runUntil steps the engine until cond holds (cores stay busy for a few
// hundred µs after ring fills, so containment actions land asynchronously).
func runUntil(t *testing.T, ma *testbed.Machine, what string, cond func() bool) {
	t.Helper()
	deadline := ma.Sim.Now() + 100*sim.Millisecond
	for ma.Sim.Now() < deadline && !cond() {
		ma.Sim.Run(ma.Sim.Now() + 10*sim.Microsecond)
	}
	if !cond() {
		t.Fatalf("%s never happened", what)
	}
}

// TestLadderThrottleRecover walks Healthy→Throttled→Healthy: a burst of
// capability denials above the soft threshold throttles the tenant, and a
// quiet window restores it.
func TestLadderThrottleRecover(t *testing.T) {
	ma := newMachine(t)
	mgr := tenant.Attach(ma)
	ten, err := mgr.AddTenant(0, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	// Present a forged handle and touch the gate 10 times (>= soft
	// threshold 8, < storm threshold 32).
	mgr.Table().Present(0, tenant.Handle{Tenant: 3})
	for i := 0; i < 10; i++ {
		mgr.Table().CheckRing(0)
	}
	runUntil(t, ma, "throttle after denial burst", func() bool {
		return ten.State() == tenant.Throttled
	})
	// Restore a valid handle; the window ages out and the tenant recovers.
	mgr.Table().Present(0, mgr.Table().Grant(0))
	runUntil(t, ma, "recovery after quiet window", func() bool {
		return ten.State() == tenant.Healthy
	})
	if mgr.Throttles != 1 {
		t.Errorf("Throttles = %d, want 1", mgr.Throttles)
	}
}

// TestLadderQuarantineReadmit walks Healthy→Quarantined→Healthy: a denial
// storm quarantines exactly the tenant's ring (neighbour rings stay live),
// revokes its capabilities, reclaims its DAMN generation, and a clean
// probation re-admits it.
func TestLadderQuarantineReadmit(t *testing.T) {
	ma := newMachine(t)
	mgr := tenant.Attach(ma)
	ten, err := mgr.AddTenant(0, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.AddTenant(1, 1, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	mgr.Table().Present(0, tenant.Handle{Tenant: 7})
	for i := 0; i < 40; i++ {
		mgr.Table().CheckRing(0)
	}
	runUntil(t, ma, "quarantine after denial storm", func() bool {
		return ten.State() == tenant.Quarantined && ma.NIC.RingQuarantined(0)
	})
	if ma.NIC.RingQuarantined(1) {
		t.Error("neighbour ring fenced — blast radius exceeded one tenant")
	}
	if ma.NIC.Quarantined() {
		t.Error("whole NIC fenced by a tenant quarantine")
	}
	if ma.IOMMU.Attached(tenant.DevOf(0)) {
		t.Error("attacker VF domain still attached")
	}
	if !ma.IOMMU.Attached(tenant.DevOf(1)) {
		t.Error("neighbour VF domain detached")
	}
	if live, err := ma.Damn.Audit(); err != nil {
		t.Errorf("DAMN audit after quarantine: %v (live=%d)", err, live)
	}
	// Clean probation: the forged handle stays on the fenced ring but no
	// traffic touches the gate, so the window drains and the tenant is
	// re-admitted with fresh capabilities.
	runUntil(t, ma, "re-admission after clean probation", func() bool {
		return ten.State() == tenant.Healthy
	})
	if ma.NIC.RingQuarantined(0) {
		t.Error("ring still fenced after re-admission")
	}
	if !ma.IOMMU.Attached(tenant.DevOf(0)) {
		t.Error("VF domain not re-attached after re-admission")
	}
	if mgr.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", mgr.Quarantines)
	}
}

// TestLadderEvict: a persistent attacker that keeps presenting revoked
// capabilities straight through its own quarantines exhausts the fault
// budget of two quarantines and is evicted for good.
func TestLadderEvict(t *testing.T) {
	ma := newMachine(t)
	mgr := tenant.Attach(ma)
	ten, err := mgr.AddTenant(0, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	// The attack: hammer the gate every 5 µs with whatever handle the ring
	// holds — forged before quarantine, stale after revocation.
	mgr.Table().Present(0, tenant.Handle{Tenant: 9})
	stop := ma.Sim.Every(5*sim.Microsecond, func() {
		mgr.Table().CheckRing(0)
	})
	defer stop()
	deadline := ma.Sim.Now() + 10*sim.Millisecond
	for ma.Sim.Now() < deadline && ten.State() != tenant.Evicted {
		ma.Sim.Run(ma.Sim.Now() + 50*sim.Microsecond)
	}
	if got := ten.State(); got != tenant.Evicted {
		t.Fatalf("persistent attacker state = %s, want evicted", got)
	}
	if got := ten.Quarantines(); got != 2 {
		t.Errorf("evicted after %d quarantines, want 2", got)
	}
	if mgr.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", mgr.Evictions)
	}
	if !ma.NIC.RingQuarantined(0) {
		t.Error("evicted tenant's ring not fenced")
	}
	if ma.IOMMU.Attached(tenant.DevOf(0)) {
		t.Error("evicted tenant's domain still attached")
	}
	// The ladder was walked in order.
	want := []tenant.State{tenant.Throttled, tenant.Quarantined, tenant.Evicted}
	var seen []tenant.State
	for _, tr := range mgr.Transitions {
		seen = append(seen, tr.To)
	}
	for i, s := range want {
		if i >= len(seen) || seen[i] != s {
			t.Fatalf("transition sequence %v, want prefix %v", seen, want)
		}
	}
}

// stormResult is what a VF 0 fault storm leaves behind.
type stormResult struct {
	state       tenant.State
	quarantines int
	// ladder is the manager's transitions, with the time of each step.
	ladder []tenant.Transition
	// recorded and overflowed are VF 0's fault records deposited in, and
	// lost to, the IOMMU's fault-record ring.
	recorded, overflowed uint64
}

// stormVF0 runs tenants 0 and 1 on rings 0 and 1 while VF 0 DMAs into an
// unmapped IOVA every 5 µs, for 5 ms or until VF 0 is evicted. supervised
// attaches the recovery supervisor and routes its foreign fault records
// into the manager; otherwise the manager reads the fault-record ring
// itself. The supervisor is attached first, so at each poll it forwards
// the tick's records before the manager's poll judges them.
func stormVF0(t *testing.T, supervised bool) stormResult {
	t.Helper()
	ma := newMachine(t)
	defer ma.Close()
	var sup *recovery.Supervisor
	if supervised {
		sup = recovery.Attach(ma)
	}
	mgr := tenant.Attach(ma)
	if sup != nil {
		sup.OnForeignRecord = mgr.BindSupervisor()
	}
	ten, err := mgr.AddTenant(0, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.AddTenant(1, 1, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	vf := device.NewMalicious(ma.IOMMU, tenant.DevOf(0))
	stop := ma.Sim.Every(5*sim.Microsecond, func() { vf.TryRead(0x1000, 64) })
	defer stop()
	deadline := ma.Sim.Now() + 5*sim.Millisecond
	for ma.Sim.Now() < deadline && ten.State() != tenant.Evicted {
		ma.Sim.Run(ma.Sim.Now() + 50*sim.Microsecond)
	}
	res := stormResult{state: ten.State(), quarantines: ten.Quarantines(), ladder: mgr.Transitions}
	res.recorded, res.overflowed, _ = ma.IOMMU.DeviceFaultStats(tenant.DevOf(0))
	return res
}

// TestLadderEvictFaultStormStandalone: a manager with no recovery
// supervisor sees every fault of a storming VF, not just the first 64 the
// fault-record ring holds, so it walks the VF to eviction as a supervised
// manager does, with the same records and the same ladder at the same
// times.
func TestLadderEvictFaultStormStandalone(t *testing.T) {
	got := stormVF0(t, false)
	if got.state != tenant.Evicted {
		t.Fatalf("storming VF state = %s, want evicted", got.state)
	}
	if got.quarantines != 2 {
		t.Errorf("evicted after %d quarantines, want 2", got.quarantines)
	}
	if got.overflowed != 0 {
		t.Errorf("%d of VF 0's fault records overflowed the ring (%d recorded)", got.overflowed, got.recorded)
	}
	if want := stormVF0(t, true); !reflect.DeepEqual(got, want) {
		t.Errorf("standalone %+v, supervised %+v", got, want)
	}
}
