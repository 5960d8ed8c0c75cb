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
//
// Every gate counts each malloc the process makes over its whole loop (see
// mallocs) and requires exactly 0, so a path that allocates once per
// thousand ops fails it. testing.AllocsPerRun, which truncates to whole
// allocations per op, would let that path pass.
package damn_test

import (
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

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

// mallocs runs op n times and returns the number of heap allocations the
// whole loop made. The count is process-wide, so nothing else may allocate
// inside the window. The GC is off while it runs, because runtime workers
// add a few mallocs of their own during a cycle. A collection and a short
// sleep on the one remaining P first let goroutines that were already
// runnable (the testing package's own, when this is the first gate in the
// binary) run and park; without them, the first gate run alone failed 8 of
// 300 processes with 1 malloc.
func mallocs(n int, op func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	time.Sleep(time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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
	if n := mallocs(1000, cancelStormRig()); n != 0 {
		t.Fatalf("cancel storm made %d mallocs in 1000 cycles, want 0", n)
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
	if n := mallocs(1000, damnAllocFreeRig(t)); n != 0 {
		t.Fatalf("damn alloc/free made %d mallocs in 1000 round trips, want 0", n)
	}
}

// dmaSchemes are the schemes the dma_map+dma_unmap round trip is gated and
// timed under.
var dmaSchemes = []damn.Scheme{
	damn.SchemeOff, damn.SchemeStrict, damn.SchemeDeferred, damn.SchemeShadow, damn.SchemeDAMN,
}

// dmaMapUnmapRig returns one dma_map+dma_unmap round trip of a 4 KiB buffer
// under scheme, warmed up past two deferred flushes. The buffer is freed when
// the test ends.
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
	for i := 0; i < 2*tbd.Model.DeferredBatchSize; i++ {
		cycle()
	}
	return cycle
}

// TestDmaMapUnmapZeroAlloc gates the dma_map+dma_unmap round trip under
// every scheme — for DAMN the §5.3 interposition, for the legacy schemes the
// real mapping machinery (walk caches and dense device tables included). The
// 1000 pairs span four of deferred's 250-entry flushes.
func TestDmaMapUnmapZeroAlloc(t *testing.T) {
	for _, scheme := range dmaSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			if n := mallocs(1000, dmaMapUnmapRig(t, scheme)); n != 0 {
				t.Fatalf("%s map/unmap made %d mallocs in 1000 pairs, want 0", scheme, n)
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
	segs := recv.Segments
	if n := mallocs(500, inject); n != 0 {
		t.Fatalf("RX path made %d mallocs in 500 segments, want 0", n)
	}
	if recv.Segments < segs+500 {
		t.Fatalf("receiver saw %d segments during measurement; the path under test did not run", recv.Segments-segs)
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
	if n := mallocs(1000, cycle); n != 0 {
		t.Fatalf("generator poll made %d mallocs in 1000 polls, want 0", n)
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
	arq = netstack.NewArqSender(ma.Sim, segLen,
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
	// The ACKs allocate their skbs from DAMN, whose byte cache keeps
	// growing for the first few hundred cycles: after 200 cycles a 500-cycle
	// window still made 2 or 3 mallocs (two magazines for returned chunks,
	// one IOMMU leaf table for a new chunk's mapping), and none in the
	// 19,500 cycles after the first such window. 1,000 cycles fill it.
	for i := 0; i < 1000; i++ {
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
	retx, segs := arq.FastRetx, recv.Segments
	if n := mallocs(500, cycle); n != 0 {
		t.Fatalf("retransmit path made %d mallocs in 500 cycles, want 0", n)
	}
	if arq.FastRetx < retx+500 || recv.Segments < segs+2000 {
		t.Fatalf("path under test did not run: %d fast retx, %d segments during measurement",
			arq.FastRetx-retx, recv.Segments-segs)
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
	segs := recv.Segments
	if n := mallocs(500, inject); n != 0 {
		t.Fatalf("multi-ring RX path made %d mallocs in 500 iterations, want 0", n)
	}
	if recv.Segments < segs+2000 {
		t.Fatalf("receiver saw %d segments during measurement; the path under test did not run", recv.Segments-segs)
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
	if n := mallocs(1000, cycle); n != 0 {
		t.Fatalf("capability check made %d mallocs in 1000 rounds, want 0", n)
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
	mgr := tenant.Attach(ma)
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
	segs := recv.Segments
	if n := mallocs(500, inject); n != 0 {
		t.Fatalf("tenant-gated RX path made %d mallocs in 500 segments, want 0", n)
	}
	if recv.Segments < segs+500 {
		t.Fatalf("receiver saw %d segments during measurement; the path under test did not run", recv.Segments-segs)
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
	if n := mallocs(1000, tick); n != 0 {
		t.Fatalf("bypass poll made %d mallocs in 1000 ticks, want 0", n)
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
	if n := mallocs(500, inject); n != 0 {
		t.Fatalf("bypass RX path made %d mallocs in 500 segments, want 0", n)
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

// TestBypassPollNoBacklog checks that the busy-poll ticker never queues a
// poll behind one that has not started: across 4,000 segments the poll core
// holds at most the running poll and one waiting poll. A poll lasts at least
// one tick, so skipping those ticks moves no poll: the driver's counters
// equal those of a ticker that submits on every tick.
func TestBypassPollNoBacklog(t *testing.T) {
	inject, d := bypassRXRig(t)
	most := 0
	for i := 0; i < 4000; i++ {
		inject()
		most = max(most, d.Core().QueueLen())
	}
	if most > 2 {
		t.Fatalf("poll core held %d tasks, want at most 2 (the running poll and one waiting)", most)
	}
	// A ticker that submits on every tick, measured on this rig; its run
	// queue grows to 420 polls.
	if d.Polls != 16380 || d.EmptyPolls != 12180 || d.Harvested != 4200 {
		t.Fatalf("polls %d, empty %d, harvested %d; want 16380, 12180, 4200",
			d.Polls, d.EmptyPolls, d.Harvested)
	}
}

// TestLinkForwardZeroAlloc gates the cross-machine path: one segment per
// epoch forwarded over a device.Link from one cluster shard to another,
// through the sender's outbox, the epoch merge and the receiver's engine.
// Link.Forward once bound a fresh closure per segment.
func TestLinkForwardZeroAlloc(t *testing.T) {
	look := workloads.ClusterLinkLatency
	c := sim.NewCluster(look, 0)
	a, b := c.AddShard(1), c.AddShard(2)
	l := device.NewLink("gate", a.Engine(), 100)
	var arrived int
	l.ConnectFunc(look, func(device.Segment) { arrived++ },
		func(at sim.Time, fn func()) { a.Send(b, at, fn) })
	seg := device.Segment{Flow: 1, Len: 1500}
	a.Engine().Every(look, func() {
		l.Forward(l.Reserve(a.Engine().Now(), seg.Len), seg)
	})
	epoch := func() { c.Run(c.Now() + look) }
	// The rig stops allocating after its third epoch, once the outbox, the
	// merge buffer, the event pool and the link's one arrival record exist;
	// 100 epochs leave a wide margin.
	for i := 0; i < 100; i++ {
		epoch()
	}
	before := arrived
	if n := mallocs(10000, epoch); n != 0 {
		t.Fatalf("link forwarding made %d mallocs in 10000 epochs, want 0", n)
	}
	if arrived != before+10000 {
		t.Fatalf("%d segments arrived in 10000 epochs, want 10000; the path under test did not run", arrived-before)
	}
}
