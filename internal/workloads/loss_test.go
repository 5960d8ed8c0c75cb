package workloads

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// lossMachine builds a small machine with the fault plane armed at the
// given link-loss percentage (split 80/20 between clean drops and
// corruption, so the checksum path is exercised too).
func lossMachine(t *testing.T, scheme testbed.Scheme, lossPct float64, seed int64) *testbed.Machine {
	t.Helper()
	p := lossPct / 100
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   scheme,
		Cores:    2,
		RingSize: 32,
		Faults: &faults.Config{Seed: seed, Rates: map[faults.Kind]float64{
			faults.LinkDrop:    0.8 * p,
			faults.LinkCorrupt: 0.2 * p,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ma
}

func runLossQuick(t *testing.T, ma *testbed.Machine) LossResult {
	t.Helper()
	res, err := RunLoss(LossConfig{
		Machine:  ma,
		Duration: 10 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLossZeroRateIsRetransmitFree(t *testing.T) {
	for _, scheme := range []testbed.Scheme{testbed.SchemeDAMN, testbed.SchemeStrict} {
		t.Run(string(scheme), func(t *testing.T) {
			ma := lossMachine(t, scheme, 0, 42)
			defer ma.Close()
			res := runLossQuick(t, ma)
			if res.GoodputGbps <= 0 {
				t.Fatalf("no goodput: %+v", res)
			}
			if res.Retransmits != 0 || res.Timeouts != 0 {
				t.Fatalf("retransmissions on a clean wire: %+v", res)
			}
			if res.DroppedDup != 0 || res.DroppedOow != 0 || res.CsumDrops != 0 {
				t.Fatalf("drops on a clean wire: %+v", res)
			}
			if res.InjectedTotal != 0 {
				t.Fatalf("zero-rate plane injected %d faults", res.InjectedTotal)
			}
		})
	}
}

func TestLossGoodputRecoversAtOnePercent(t *testing.T) {
	ma0 := lossMachine(t, testbed.SchemeDAMN, 0, 42)
	defer ma0.Close()
	base := runLossQuick(t, ma0)

	ma1 := lossMachine(t, testbed.SchemeDAMN, 1, 42)
	defer ma1.Close()
	lossy := runLossQuick(t, ma1)

	if lossy.Retransmits == 0 {
		t.Fatalf("1%% loss produced no retransmissions: %+v", lossy)
	}
	if lossy.CsumDrops == 0 {
		t.Fatalf("corruption share produced no checksum drops: %+v", lossy)
	}
	if lossy.GoodputGbps < 0.9*base.GoodputGbps {
		t.Fatalf("goodput not recovered: %.2f Gb/s at 1%% loss vs %.2f clean (< 90%%)",
			lossy.GoodputGbps, base.GoodputGbps)
	}
}

func TestLossSeedReplay(t *testing.T) {
	run := func(seed int64) LossResult {
		ma := lossMachine(t, testbed.SchemeDAMN, 2, seed)
		defer ma.Close()
		return runLossQuick(t, ma)
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := run(8)
	if c.ScheduleDigest == a.ScheduleDigest {
		t.Fatalf("different seeds share a schedule digest: %#x", a.ScheduleDigest)
	}
}

// TestRetransmitQuarantineRecovery is the watchdog × retransmission ×
// recovery interplay gate: a DMA-fault storm mid-flow quarantines and
// resets the NIC while ARQ segments are in flight. Retransmissions landing
// on the quarantined device die at the fence, completions that crossed the
// quarantine epoch release their buffers without touching the rebuilt
// ring, the allocator's conservation audit stays clean, and the flow
// resumes on its own once the supervisor heals the device.
func TestRetransmitQuarantineRecovery(t *testing.T) {
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		Cores:    2,
		RingSize: 32,
		Faults:   &faults.Config{Seed: 11, Rates: map[faults.Kind]float64{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	sup := recovery.Attach(ma)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}

	g, err := NewARQGenerator(ma, 0, 0, 1, ma.Model.SegmentSize)
	if err != nil {
		t.Fatal(err)
	}
	recv := &netstack.Receiver{K: ma.Kernel}
	rr := netstack.NewReliableReceiver(recv, ma.Driver, 0, 0, g.Arq())
	ma.Driver.OnDeliver = func(tk *sim.Task, ring int, skb *netstack.SKBuff) {
		rr.HandleSegment(tk, skb)
	}
	g.Start()

	// Reach steady state.
	ma.Sim.Run(5 * sim.Millisecond)
	if recv.Segments == 0 {
		t.Fatal("flow never started")
	}

	// The storm: translations fault hard for 2 ms; the supervisor must
	// quarantine, reset, and heal.
	stormStart := ma.Sim.Now()
	ma.Faults.SetRate(faults.DMAFault, 0.5)
	ma.Sim.At(stormStart+2*sim.Millisecond, func() {
		ma.Faults.SetRate(faults.DMAFault, 0)
	})
	// Ride out the storm window first (detection and quarantine happen
	// inside it), then step until the supervisor reports Healthy again.
	ma.Sim.Run(stormStart + 2*sim.Millisecond)
	deadline := stormStart + 60*sim.Millisecond
	for ma.Sim.Now() < deadline &&
		(sup.Quarantines == 0 || sup.State(testbed.NICDeviceID) != recovery.Healthy) {
		ma.Sim.Run(ma.Sim.Now() + 100*sim.Microsecond)
	}
	if got := sup.State(testbed.NICDeviceID); got != recovery.Healthy {
		t.Fatalf("device not healed: %v", got)
	}
	if sup.Quarantines == 0 || sup.Resets == 0 {
		t.Fatalf("storm handled without quarantine/reset: %+v", sup)
	}

	// The flow must recover by retransmission: delivery advances after
	// the heal, with no operator intervention (the pump keeps polling).
	preBytes, preExpect := recv.Bytes, rr.Expect()
	ma.Sim.Run(ma.Sim.Now() + 10*sim.Millisecond)
	if recv.Bytes <= preBytes {
		t.Fatalf("flow did not recover after reinit: bytes %d -> %d", preBytes, recv.Bytes)
	}
	if rr.Expect() <= preExpect {
		t.Fatalf("receive window did not advance: expect %d -> %d", preExpect, rr.Expect())
	}
	if g.Arq().Retransmits == 0 {
		t.Fatal("outage repaired without retransmissions?")
	}

	// Epoch hygiene: any completion that crossed the quarantine was
	// reclaimed without touching the rebuilt ring, and buffer
	// conservation held throughout (the audit fails on any leak the
	// stale-completion path would have caused).
	g.Stop()
	sup.Stop()
	if ma.StopWatchdog != nil {
		ma.StopWatchdog()
	}
	if _, err := ma.Damn.Audit(); err != nil {
		t.Fatalf("conservation audit after recovery: %v", err)
	}
}
