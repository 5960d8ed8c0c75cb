package recovery_test

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// newMachine builds a small DAMN machine with the fault plane armed (all
// rates zero) so the watchdog is running, like a production deployment.
func newMachine(t *testing.T, scheme testbed.Scheme) *testbed.Machine {
	t.Helper()
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   scheme,
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

// stormUntil drives synthetic device faults (translations of an unmapped
// IOVA — each deposits a fault record attributed to the NIC) until the
// supervisor reaches the wanted state, then stops the fault source.
func stormUntil(t *testing.T, ma *testbed.Machine, sup *recovery.Supervisor, want recovery.State) {
	t.Helper()
	stop := ma.Sim.Every(2*sim.Microsecond, func() {
		_, _ = ma.IOMMU.Translate(testbed.NICDeviceID, iommu.IOVA(0xdead0000), true)
	})
	deadline := ma.Sim.Now() + 100*sim.Millisecond
	for ma.Sim.Now() < deadline && sup.State(testbed.NICDeviceID) != want {
		ma.Sim.Run(ma.Sim.Now() + 10*sim.Microsecond)
	}
	stop()
	if got := sup.State(testbed.NICDeviceID); got != want {
		t.Fatalf("device never reached %s; stuck at %s", want, got)
	}
}

// runUntilState steps the engine until the device reaches the state.
func runUntilState(t *testing.T, ma *testbed.Machine, sup *recovery.Supervisor, want recovery.State) {
	t.Helper()
	deadline := ma.Sim.Now() + 100*sim.Millisecond
	for ma.Sim.Now() < deadline && sup.State(testbed.NICDeviceID) != want {
		ma.Sim.Run(ma.Sim.Now() + 10*sim.Microsecond)
	}
	if got := sup.State(testbed.NICDeviceID); got != want {
		t.Fatalf("device never reached %s; stuck at %s", want, got)
	}
}

// TestStormQuarantineHeal walks the full state machine: a fault storm must
// degrade, quarantine, reset and heal the device, with the allocator's
// conservation invariants intact and the recovery evidence recorded.
func TestStormQuarantineHeal(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN)
	sup := recovery.Attach(ma)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}

	stormUntil(t, ma, sup, recovery.Quarantined)
	if !ma.NIC.Quarantined() {
		t.Error("NIC not fenced while Quarantined")
	}
	if ma.IOMMU.Attached(testbed.NICDeviceID) {
		t.Error("IOMMU domain still attached while Quarantined")
	}

	runUntilState(t, ma, sup, recovery.Healthy)
	if !ma.IOMMU.Attached(testbed.NICDeviceID) {
		t.Error("domain not re-attached after recovery")
	}
	if ma.NIC.Quarantined() {
		t.Error("NIC still fenced after recovery")
	}
	if sup.Storms == 0 || sup.Quarantines == 0 || sup.Resets == 0 || sup.Reinits == 0 {
		t.Errorf("missing intervention counts: %+v", sup)
	}
	if sup.MTTR(testbed.NICDeviceID) <= 0 {
		t.Error("MTTR not recorded")
	}
	if sup.ReleasedPages == 0 {
		t.Error("reset reclaimed no DAMN pages")
	}
	// The rings were refilled: chunks are live again.
	if _, err := ma.Damn.Audit(); err != nil {
		t.Errorf("conservation audit after recovery: %v", err)
	}
	rec, _, _ := ma.IOMMU.DeviceFaultStats(testbed.NICDeviceID)
	if rec == 0 {
		t.Error("no per-device fault records attributed to the NIC")
	}
	// The state machine must have walked the canonical path.
	var path []recovery.State
	for _, tr := range sup.Transitions {
		if tr.Dev == testbed.NICDeviceID {
			path = append(path, tr.To)
		}
	}
	want := []recovery.State{recovery.Degraded, recovery.Quarantined, recovery.Resetting,
		recovery.Reinitializing, recovery.Healthy}
	if len(path) < len(want) {
		t.Fatalf("transition path too short: %v", path)
	}
	// Degraded may be skipped if the storm trips both thresholds in one
	// poll; check the tail from Quarantined onward.
	tail := path[len(path)-4:]
	if !reflect.DeepEqual(tail, want[1:]) {
		t.Errorf("transition tail %v, want %v", tail, want[1:])
	}
	if sup.StateTime(testbed.NICDeviceID, recovery.Quarantined) <= 0 {
		t.Error("no time accounted to Quarantined")
	}
}

// TestMTTRHoldsThroughSecondQuarantine: MTTR reports the last heal's
// quarantine-to-healthy latency, the one the mttr_ps gauge records, and
// keeps reporting it while the device sits in a second quarantine.
func TestMTTRHoldsThroughSecondQuarantine(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN)
	sup := recovery.Attach(ma)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	for heal := 1; heal <= 2; heal++ {
		stormUntil(t, ma, sup, recovery.Quarantined)
		runUntilState(t, ma, sup, recovery.Healthy)
		mttr := sup.MTTR(testbed.NICDeviceID)
		if mttr <= 0 {
			t.Fatalf("heal %d: MTTR = %v, want > 0", heal, mttr)
		}
		if g := ma.Stats.Snapshot().Gauges["recovery/mttr_ps"]; g != int64(mttr) {
			t.Fatalf("heal %d: MTTR = %v, mttr_ps gauge = %d ps", heal, mttr, g)
		}
		stormUntil(t, ma, sup, recovery.Quarantined)
		if got := sup.MTTR(testbed.NICDeviceID); got != mttr {
			t.Fatalf("heal %d: MTTR in the next quarantine = %v, want the heal's %v", heal, got, mttr)
		}
	}
}

// TestDeterminism: two identical machines driven through the same storm
// must record identical transition sequences and fault evidence.
func TestDeterminism(t *testing.T) {
	run := func() ([]recovery.Transition, uint64) {
		ma := newMachine(t, testbed.SchemeDAMN)
		sup := recovery.Attach(ma)
		if err := ma.FillAllRings(); err != nil {
			t.Fatal(err)
		}
		stormUntil(t, ma, sup, recovery.Quarantined)
		runUntilState(t, ma, sup, recovery.Healthy)
		rec, _, _ := ma.IOMMU.DeviceFaultStats(testbed.NICDeviceID)
		return sup.Transitions, rec
	}
	trA, recA := run()
	trB, recB := run()
	if !reflect.DeepEqual(trA, trB) {
		t.Errorf("transition sequences diverge:\n a=%v\n b=%v", trA, trB)
	}
	if recA != recB {
		t.Errorf("fault-record counts diverge: %d vs %d", recA, recB)
	}
}

// TestRemovalAndHotplug: surprise removal takes the containment path with
// no re-attach (Failed); hotplugging a replacement heals the domain.
func TestRemovalAndHotplug(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN)
	sup := recovery.Attach(ma)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	ma.Sim.Run(ma.Sim.Now() + 100*sim.Microsecond)

	if err := sup.Remove(testbed.NICDeviceID); err != nil {
		t.Fatal(err)
	}
	runUntilState(t, ma, sup, recovery.Failed)
	if !ma.NIC.Removed() {
		t.Error("NIC not marked removed")
	}
	if ma.IOMMU.Attached(testbed.NICDeviceID) {
		t.Error("removed device still has an IOMMU domain")
	}
	if _, err := ma.Damn.Audit(); err != nil {
		t.Errorf("conservation audit after removal: %v", err)
	}

	if err := sup.Hotplug(testbed.NICDeviceID); err != nil {
		t.Fatal(err)
	}
	runUntilState(t, ma, sup, recovery.Healthy)
	if ma.NIC.Removed() || ma.NIC.Quarantined() {
		t.Error("hotplugged NIC not back in service")
	}
	if !ma.IOMMU.Attached(testbed.NICDeviceID) {
		t.Error("hotplugged device has no IOMMU domain")
	}
	if sup.Hotplugs != 1 || sup.Removals != 1 {
		t.Errorf("removal/hotplug counts wrong: %+v", sup)
	}
}

// TestBoundedRetriesFail: when reinitialisation keeps failing (allocation
// faults at rate 1.0 starve every ring refill), the supervisor must retry
// with backoff at most 3 times and then park the device as Failed — not
// loop forever.
func TestBoundedRetriesFail(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDeferred)
	sup := recovery.Attach(ma)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	ma.Faults.SetRate(faults.AllocFail, 1.0)
	stormUntil(t, ma, sup, recovery.Quarantined)
	runUntilState(t, ma, sup, recovery.Failed)
	if sup.Failures != 1 {
		t.Errorf("failures = %d, want 1", sup.Failures)
	}
	if got := sup.ResetsFor(testbed.NICDeviceID); got != 3 {
		t.Errorf("reset attempts = %d, want exactly 3", got)
	}
	if ma.IOMMU.Attached(testbed.NICDeviceID) {
		t.Error("failed device left attached")
	}
}

// TestWatchdogQuarantineInterplay: while the device is quarantined or
// resetting, the NAPI watchdog must not repost buffers into it (the fence
// rejects posts; the watchdog skips the device entirely), and after
// reinitialisation the rings must be full again without watchdog help.
func TestWatchdogQuarantineInterplay(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN)
	sup := recovery.Attach(ma)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	stormUntil(t, ma, sup, recovery.Quarantined)

	posted := func() int {
		n := 0
		for ring := 0; ring < ma.NIC.Cfg.Rings; ring++ {
			p, err := ma.NIC.RXPosted(ring)
			if err != nil {
				t.Fatal(err)
			}
			n += p
		}
		return n
	}
	if posted() != 0 {
		t.Fatalf("quarantine left %d descriptors posted", posted())
	}
	// The device stays fenced from the quarantine until reinitialisation,
	// at least the 100 µs reset backoff, which is the watchdog's period:
	// the watchdog ticks at least once while the device is down. Step
	// through the whole window; no repost may land.
	deadline := ma.Sim.Now() + 100*sim.Millisecond
	for ma.NIC.Quarantined() && ma.Sim.Now() < deadline {
		if posted() != 0 {
			t.Fatalf("watchdog reposted %d descriptors into a quarantined device", posted())
		}
		ma.Sim.Run(ma.Sim.Now() + 5*sim.Microsecond)
	}
	var down, up sim.Time
	for _, tr := range sup.Transitions {
		switch tr.To {
		case recovery.Quarantined:
			down = tr.At
		case recovery.Reinitializing:
			up = tr.At
		}
	}
	if up-down < 100*sim.Microsecond {
		t.Fatalf("device was down %v, less than one watchdog period", up-down)
	}

	runUntilState(t, ma, sup, recovery.Healthy)
	want := ma.NIC.Cfg.Rings * ma.NIC.Cfg.RingSize
	if posted() != want {
		t.Errorf("rings not refilled after reinit: %d posted, want %d", posted(), want)
	}
	if _, err := ma.Damn.Audit(); err != nil {
		t.Errorf("conservation audit: %v", err)
	}
}
