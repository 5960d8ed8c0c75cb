// Allocation-regression gates for the per-packet data path. The free-list
// pools (engine events, core tasks, NIC dispatch records, skbs, RX ring
// cookies, user-copy buffers) and the sharded DAMN fast path make the steady
// state allocation-free; these tests pin that property so a stray closure or
// boxed value on the hot path fails CI instead of silently costing 10-20% of
// macro wall clock again.
//
// A gate that has a benchmark builds its rig with a *Rig helper that returns
// the warmed-up steady-state operation; the benchmark in bench_test.go times
// that same operation.
package damn_test

import (
	"net/netip"
	"testing"

	damn "github.com/asplos18/damn"
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/tenant"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// gateMachine builds the small machine the packet-path gates run on: 256 MiB
// of RAM and one 8-entry RX ring per core.
func gateMachine(tb testing.TB, scheme testbed.Scheme, cores int) *testbed.Machine {
	tb.Helper()
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   scheme,
		MemBytes: 256 << 20,
		Cores:    cores,
		RingSize: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ma
}

// rxMachine is a DAMN gate machine whose driver hands every segment to a
// receiver, with every RX ring filled.
func rxMachine(tb testing.TB, cores int) (*testbed.Machine, *netstack.Receiver) {
	tb.Helper()
	ma := gateMachine(tb, testbed.SchemeDAMN, cores)
	recv := &netstack.Receiver{K: ma.Kernel}
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		recv.HandleSegment(task, skb)
	}
	if err := ma.FillAllRings(); err != nil {
		tb.Fatal(err)
	}
	return ma, recv
}

// cancelStormRig returns one start-ticker / schedule / stop-ticker / drain
// cycle on a warmed-up engine.
func cancelStormRig() (cycle func()) {
	e := sim.NewEngine(1)
	fn := func() {}
	cycle = func() {
		stop := e.Every(sim.Microsecond, fn)
		e.After(sim.Microsecond/2, fn)
		stop()
		e.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	return cycle
}

// TestCancelStormZeroAlloc gates the engine's cancel-heavy ticker churn: a
// start-ticker / schedule / stop-ticker / drain cycle must recycle the
// ticker and its event through the engine free lists instead of allocating
// a fresh ticker, stop closure and event per iteration (319 ns and 4
// allocs/op before the ticker free list).
func TestCancelStormZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, cancelStormRig()); allocs != 0 {
		t.Fatalf("cancel storm allocates %.1f/op, want 0", allocs)
	}
}

// damnAllocFreeRig returns one damn_alloc/damn_free round trip of a
// 1500-byte buffer, after warm-up allocations have populated the chunk,
// magazines and region shard.
func damnAllocFreeRig(tb testing.TB) (cycle func()) {
	d := benchMachine(tb, damn.SchemeDAMN).DamnAllocator()
	cycle = func() {
		pa, err := d.Alloc(damnCtx, testbed.NICDeviceID, iommu.PermWrite, 1500)
		if err != nil {
			tb.Fatal(err)
		}
		if err := d.Free(damnCtx, pa); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	return cycle
}

// TestDamnAllocFreeZeroAlloc gates the damn_alloc/damn_free fast path: after
// the first allocation warms the chunk, magazines and region shard, the
// per-buffer cycle must not touch the Go heap.
func TestDamnAllocFreeZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, damnAllocFreeRig(t)); allocs != 0 {
		t.Fatalf("damn alloc/free allocates %.1f/op, want 0", allocs)
	}
}

// dmaSchemes are the schemes the dma_map+dma_unmap round trip is gated and
// timed under.
var dmaSchemes = []damn.Scheme{
	damn.SchemeOff, damn.SchemeStrict, damn.SchemeDeferred, damn.SchemeShadow, damn.SchemeDAMN,
}

// dmaMapUnmapRig returns one dma_map+dma_unmap round trip of a 4 KiB buffer
// under scheme, warmed up. The buffer is freed when the test ends.
func dmaMapUnmapRig(tb testing.TB, scheme damn.Scheme) (cycle func()) {
	tbd := benchMachine(tb, scheme).Testbed()
	pa, damnOwned, err := tbd.Kernel.AllocBuffer(nil, testbed.NICDeviceID, iommu.PermWrite, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tbd.Kernel.FreeBuffer(nil, pa, damnOwned) })
	cycle = func() {
		v, err := tbd.DMA.Map(nil, testbed.NICDeviceID, pa, 4096, dmaapi.FromDevice)
		if err != nil {
			tb.Fatal(err)
		}
		if err := tbd.DMA.Unmap(nil, testbed.NICDeviceID, v, 4096, dmaapi.FromDevice); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	return cycle
}

// TestDmaMapUnmapZeroAlloc gates the dma_map+dma_unmap round trip under
// every scheme — for DAMN the §5.3 interposition, for the legacy schemes the
// real mapping machinery (walk caches and dense device tables included).
func TestDmaMapUnmapZeroAlloc(t *testing.T) {
	for _, scheme := range dmaSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			if allocs := testing.AllocsPerRun(1000, dmaMapUnmapRig(t, scheme)); allocs != 0 {
				t.Fatalf("%s map/unmap allocates %.1f/op, want 0", scheme, allocs)
			}
		})
	}
}

// rxPathRig returns one 9000-byte segment through the full single-ring
// receive path, after a warm-up that populates every pool, and the receiver
// it is delivered to.
func rxPathRig(tb testing.TB) (inject func(), recv *netstack.Receiver) {
	ma, recv := rxMachine(tb, 2)
	hdr := []byte("hdr:steady")
	inject = func() {
		ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
		ma.Sim.RunUntilIdle()
	}
	for i := 0; i < 200; i++ {
		inject()
	}
	return inject, recv
}

// TestRXPathZeroAlloc gates the full receive path in steady state: wire
// arrival, DMA + translation, interrupt dispatch, driver unmap + repost,
// skb adoption, accessor copy, netfilter, user copy, free. After a warmup
// that populates every pool, a segment end-to-end must not allocate.
func TestRXPathZeroAlloc(t *testing.T) {
	inject, recv := rxPathRig(t)
	if allocs := testing.AllocsPerRun(500, inject); allocs != 0 {
		t.Fatalf("RX path allocates %.1f/segment, want 0", allocs)
	}
	if recv.Segments < 700 {
		t.Fatalf("receiver saw %d segments; the path under test did not run", recv.Segments)
	}
}

// TestGeneratorPollZeroAlloc gates the netperf generator's flow-control
// poll: while its ring is parked past the pause limit, every 10 µs poll
// only re-checks the ring and re-arms itself, which must not allocate (a
// method value bound per re-arm once made most of a run's heap objects).
func TestGeneratorPollZeroAlloc(t *testing.T) {
	ma := gateMachine(t, testbed.SchemeDAMN, 2)
	// No RX buffers are posted, so every segment the generator offers parks.
	g, err := workloads.NewGenerator(ma, 0, 0, 1, ma.Model.SegmentSize)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	const poll = 10 * sim.Microsecond // the generator's poll interval
	cycle := func() {
		ma.Sim.Run(ma.Sim.Now() + poll)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if parked, err := ma.NIC.RXParked(0); err != nil || parked < 8 {
		t.Fatalf("ring 0 parked %d segments (err %v); the poll under test would inject", parked, err)
	}
	events := ma.Sim.Processed()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("generator poll allocates %.1f/op, want 0", allocs)
	}
	if ma.Sim.Processed() < events+1000 {
		t.Fatalf("%d events ran during measurement; the poll under test did not run", ma.Sim.Processed()-events)
	}
}

// retransmitRig returns one ARQ loss-recovery cycle, warmed up: a lost
// segment and three successors, whose duplicate ACKs trigger the fast
// retransmit that repairs the hole, and the final fresh ACK that empties the
// window. It also returns the sender and the receiver behind the reliable
// receiver.
func retransmitRig(tb testing.TB) (cycle func(), arq *netstack.ArqSender, recv *netstack.Receiver) {
	ma := gateMachine(tb, testbed.SchemeDAMN, 2)
	if err := ma.FillAllRings(); err != nil {
		tb.Fatal(err)
	}
	src := netip.AddrFrom4([4]byte{192, 168, 0, 1})
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	const segLen = 1500
	dropNext := false
	arq = netstack.NewArqSender(ma.Sim, netstack.ArqConfig{SegLen: segLen},
		func(seg *netstack.ArqSegment, retx bool) {
			if !retx {
				payload := seg.Len - netstack.HeaderLen
				byteSeq := (seg.Seq - 1) * uint32(payload)
				seg.Hdr = netstack.AppendHeaders(seg.HdrBuf(), src, dst, 10001, 5001, byteSeq, payload)
				if dropNext {
					dropNext = false
					return // lost on the wire; recovery must resend it
				}
			}
			ma.NIC.InjectRX(0, device.Segment{Flow: 1, Seq: seg.Seq, Len: seg.Len, Header: seg.Hdr})
		})
	recv = &netstack.Receiver{K: ma.Kernel}
	rr := netstack.NewReliableReceiver(recv, ma.Driver, 0, 0, arq)
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		rr.HandleSegment(task, skb)
	}
	cycle = func() {
		dropNext = true
		for i := 0; i < 4; i++ {
			arq.SendNext()
		}
		ma.Sim.RunUntilIdle()
		if arq.InFlight() != 0 {
			tb.Fatalf("window not drained: %d in flight", arq.InFlight())
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	return cycle, arq, recv
}

// TestRetransmitPathZeroAlloc gates the ARQ loss-recovery cycle: every
// iteration loses a segment, detects the hole by duplicate ACKs, fast
// retransmits through the same injection path, reorders/flushes at the
// receiver, and returns the cumulative ACK through the real TX DMA path.
// After warmup the whole cycle — pooled ARQ segments, header rebuilds into
// the embedded buffer, reorder-window bookkeeping, pooled ACK transmissions
// and the lazily re-armed RTO timer — must not touch the Go heap.
func TestRetransmitPathZeroAlloc(t *testing.T) {
	cycle, arq, recv := retransmitRig(t)
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("retransmit path allocates %.1f/cycle, want 0", allocs)
	}
	if arq.FastRetx < 700 || recv.Segments < 2800 {
		t.Fatalf("path under test did not run: %d fast retx, %d segments", arq.FastRetx, recv.Segments)
	}
}

// TestRXPathZeroAllocMultiRing extends the gate to RSS fan-out: four rings,
// each bound to its own core and DAMN shard, with every iteration pushing
// one segment through every ring. The per-queue completion/refill paths
// (and the hash → indirection-table steering itself) must stay
// allocation-free too.
func TestRXPathZeroAllocMultiRing(t *testing.T) {
	ma, recv := rxMachine(t, 4) // Rings == Cores: 4 RX queues
	hdr := []byte("hdr:steady")
	inject := func() {
		// The default indirection table is i % Rings over 128 slots, so
		// hash h < 4 selects ring h: one segment per ring per iteration.
		for h := uint32(0); h < 4; h++ {
			ma.NIC.InjectRX(0, device.Segment{Flow: int(h) + 1, Hash: h, Len: 9000, Header: hdr})
		}
		ma.Sim.RunUntilIdle()
	}
	for i := 0; i < 200; i++ {
		inject()
	}
	if allocs := testing.AllocsPerRun(500, inject); allocs != 0 {
		t.Fatalf("multi-ring RX path allocates %.1f/iteration, want 0", allocs)
	}
	if recv.Segments < 2800 {
		t.Fatalf("receiver saw %d segments; the path under test did not run", recv.Segments)
	}
	if ma.Driver.RxWrongCore != 0 {
		t.Fatalf("RxWrongCore = %d, want 0", ma.Driver.RxWrongCore)
	}
}

// capCheckRig returns the capability checks of one map/unmap round on a
// four-ring table: a valid handle, a forged one (wrong tenant) and an
// unowned ring that passes uncounted.
func capCheckRig(tb testing.TB) (cycle func(), tab *tenant.Table) {
	tab = tenant.NewTable(4)
	tab.SetStats(stats.NewRegistry())
	tab.AssignRing(0, 0)
	tab.AssignRing(1, 1)
	tab.Present(1, tenant.Handle{Tenant: 0}) // forged: wrong tenant
	cycle = func() {
		if !tab.CheckRing(0) {
			tb.Fatal("valid capability denied")
		}
		if tab.CheckRing(1) {
			tb.Fatal("forged capability passed")
		}
		_ = tab.CheckRing(2) // unowned: passes uncounted
	}
	return cycle, tab
}

// TestCapCheckZeroAlloc gates the multi-tenant capability check itself: the
// two-compare validation the driver runs before every map and unmap on a
// tenant-owned ring. Both the accept path and the deny path (aggregate and
// per-tenant denial counters included) must stay off the Go heap — the
// counters are created at Register time, never on the check.
func TestCapCheckZeroAlloc(t *testing.T) {
	cycle, tab := capCheckRig(t)
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("capability check allocates %.1f/op, want 0", allocs)
	}
	if tab.Denials < 1000 {
		t.Fatalf("deny path saw %d denials; the path under test did not run", tab.Denials)
	}
}

// TestRXPathZeroAllocTenancy re-runs the RX steady-state gate with the
// multi-tenant layer installed: the capability gate on every map/unmap and
// the fair-share admission pacer on every DMA must not add an allocation to
// the per-segment path. The containment poller is stopped before measuring
// (it is control-plane cadence, not per-packet work, and RunUntilIdle never
// drains a live ticker); the gate and the pacer stay installed.
func TestRXPathZeroAllocTenancy(t *testing.T) {
	ma := gateMachine(t, testbed.SchemeDAMN, 2)
	mgr := tenant.Attach(ma, tenant.Config{})
	if _, err := mgr.AddTenant(0, 1, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	recv := &netstack.Receiver{K: ma.Kernel}
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		recv.HandleSegment(task, skb)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	mgr.Stop()
	hdr := []byte("hdr:steady")
	inject := func() {
		ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
		ma.Sim.RunUntilIdle()
	}
	for i := 0; i < 200; i++ {
		inject()
	}
	if allocs := testing.AllocsPerRun(500, inject); allocs != 0 {
		t.Fatalf("tenant-gated RX path allocates %.1f/segment, want 0", allocs)
	}
	if recv.Segments < 700 {
		t.Fatalf("receiver saw %d segments; the path under test did not run", recv.Segments)
	}
	if mgr.Table().Checks == 0 {
		t.Fatal("capability gate never consulted; the path under test did not run")
	}
}

// bypassMachine assembles a bypass machine with a set-up, started polling
// driver. The caller must advance the engine with bounded Run windows — the
// poll ticker never goes idle, so RunUntilIdle would spin forever.
func bypassMachine(tb testing.TB, scheme testbed.Scheme) (*testbed.Machine, *netstack.BypassDriver) {
	tb.Helper()
	ma := gateMachine(tb, scheme, 2)
	d := netstack.NewBypassDriver(ma.Kernel, ma.NIC, 0, testbed.BypassDeviceID,
		scheme == testbed.SchemeBypassProt)
	var setupErr error
	d.Core().Submit(false, func(task *sim.Task) { setupErr = d.Setup(task) })
	ma.Sim.Run(ma.Sim.Now())
	if setupErr != nil {
		tb.Fatal(setupErr)
	}
	d.Start()
	tb.Cleanup(d.Close)
	return ma, d
}

// bypassPollRig returns one idle busy-poll tick of a bypass-raw driver,
// warmed up.
func bypassPollRig(tb testing.TB) (tick func(), d *netstack.BypassDriver) {
	ma, d := bypassMachine(tb, testbed.SchemeBypassRaw)
	interval := ma.Model.BypassPollInterval
	tick = func() {
		ma.Sim.Run(ma.Sim.Now() + interval)
	}
	for i := 0; i < 200; i++ {
		tick()
	}
	return tick, d
}

// TestBypassPollZeroAlloc gates the idle busy-poll loop: every tick submits
// the pinned poll task, harvests an empty used ring and charges the full
// spin interval. The pinned ticker, task free list and reused harvest
// buffer make the steady-state tick allocation-free.
func TestBypassPollZeroAlloc(t *testing.T) {
	tick, d := bypassPollRig(t)
	polls := d.Polls
	if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
		t.Fatalf("bypass poll tick allocates %.1f/op, want 0", allocs)
	}
	if d.Polls < polls+1000 {
		t.Fatalf("poll loop ticked %d times during measurement; the path under test did not run", d.Polls-polls)
	}
	if d.EmptyPolls == 0 {
		t.Fatal("no empty polls recorded; the idle spin path did not run")
	}
}

// bypassRXRig returns one 9000-byte segment through the bypass-prot receive
// path, warmed up: wire arrival, then four poll intervals, which cover DMA,
// used-ring publish, harvest and repost.
func bypassRXRig(tb testing.TB) (inject func(), d *netstack.BypassDriver) {
	ma, d := bypassMachine(tb, testbed.SchemeBypassProt)
	window := 4 * ma.Model.BypassPollInterval
	hdr := []byte("hdr:steady")
	inject = func() {
		ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
		ma.Sim.Run(ma.Sim.Now() + window)
	}
	for i := 0; i < 200; i++ {
		inject()
	}
	return inject, d
}

// TestBypassRXPathZeroAlloc gates the full bypass receive path in steady
// state: wire arrival, DMA through the per-app domain, used-ring publish,
// busy-poll harvest, run-to-completion delivery and the batched repost
// behind one doorbell. Runs the protected flavor so the IOMMU-translated
// path is the one measured.
func TestBypassRXPathZeroAlloc(t *testing.T) {
	inject, d := bypassRXRig(t)
	harvested := d.Harvested
	if allocs := testing.AllocsPerRun(500, inject); allocs != 0 {
		t.Fatalf("bypass RX path allocates %.1f/segment, want 0", allocs)
	}
	if d.Harvested < harvested+500 {
		t.Fatalf("driver harvested %d completions during measurement; the path under test did not run", d.Harvested-harvested)
	}
	if d.Drops != 0 {
		t.Fatalf("%d completions dropped; the good-segment path was not the one measured", d.Drops)
	}
	if vq := d.Virtqueue(); vq.PublishFaults != 0 {
		t.Fatalf("%d used-ring publishes faulted; the registered pool does not cover the ring", vq.PublishFaults)
	}
}
