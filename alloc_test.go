// Allocation-regression gates for the per-packet data path. The free-list
// pools (engine events, core tasks, NIC dispatch records, skbs, RX ring
// cookies, user-copy buffers) and the sharded DAMN fast path make the steady
// state allocation-free; these tests pin that property so a stray closure or
// boxed value on the hot path fails CI instead of silently costing 10-20% of
// macro wall clock again.
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

// TestCancelStormZeroAlloc gates the engine's cancel-heavy ticker churn: a
// start-ticker / schedule / stop-ticker / drain cycle must recycle the
// ticker and its event through the engine free lists instead of allocating
// a fresh ticker, stop closure and event per iteration (319 ns and 4
// allocs/op before the ticker free list).
func TestCancelStormZeroAlloc(t *testing.T) {
	e := sim.NewEngine(1)
	fn := func() {}
	cycle := func() {
		stop := e.Every(sim.Microsecond, fn)
		e.After(sim.Microsecond/2, fn)
		stop()
		e.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("cancel storm allocates %.1f/op, want 0", allocs)
	}
}

// TestDamnAllocFreeZeroAlloc gates the damn_alloc/damn_free fast path: after
// the first allocation warms the chunk, magazines and region shard, the
// per-buffer cycle must not touch the Go heap.
func TestDamnAllocFreeZeroAlloc(t *testing.T) {
	m := benchMachine(t, damn.SchemeDAMN)
	d := m.DamnAllocator()
	cycle := func() {
		pa, err := d.Alloc(damnCtx, testbed.NICDeviceID, iommu.PermWrite, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Free(damnCtx, pa); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("damn alloc/free allocates %.1f/op, want 0", allocs)
	}
}

// TestDmaMapUnmapZeroAlloc gates the dma_map+dma_unmap round trip under
// every scheme — for DAMN the §5.3 interposition, for the legacy schemes the
// real mapping machinery (walk caches and dense device tables included).
func TestDmaMapUnmapZeroAlloc(t *testing.T) {
	for _, scheme := range []damn.Scheme{
		damn.SchemeOff, damn.SchemeStrict, damn.SchemeDeferred, damn.SchemeShadow, damn.SchemeDAMN,
	} {
		t.Run(string(scheme), func(t *testing.T) {
			m := benchMachine(t, scheme)
			tb := m.Testbed()
			pa, damnOwned, err := tb.Kernel.AllocBuffer(nil, testbed.NICDeviceID, iommu.PermWrite, 4096)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Kernel.FreeBuffer(nil, pa, damnOwned)
			cycle := func() {
				v, err := tb.DMA.Map(nil, testbed.NICDeviceID, pa, 4096, dmaapi.FromDevice)
				if err != nil {
					t.Fatal(err)
				}
				if err := tb.DMA.Unmap(nil, testbed.NICDeviceID, v, 4096, dmaapi.FromDevice); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
				t.Fatalf("%s map/unmap allocates %.1f/op, want 0", scheme, allocs)
			}
		})
	}
}

// TestRXPathZeroAlloc gates the full receive path in steady state: wire
// arrival, DMA + translation, interrupt dispatch, driver unmap + repost,
// skb adoption, accessor copy, netfilter, user copy, free. After a warmup
// that populates every pool, a segment end-to-end must not allocate.
func TestRXPathZeroAlloc(t *testing.T) {
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		MemBytes: 256 << 20,
		Cores:    2,
		RingSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv := &netstack.Receiver{K: ma.Kernel}
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		recv.HandleSegment(task, skb)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	hdr := []byte("hdr:steady")
	inject := func() {
		ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
		ma.Sim.RunUntilIdle()
	}
	for i := 0; i < 200; i++ {
		inject()
	}
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
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		MemBytes: 256 << 20,
		Cores:    2,
		RingSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestRetransmitPathZeroAlloc gates the ARQ loss-recovery cycle: every
// iteration loses a segment, detects the hole by duplicate ACKs, fast
// retransmits through the same injection path, reorders/flushes at the
// receiver, and returns the cumulative ACK through the real TX DMA path.
// After warmup the whole cycle — pooled ARQ segments, header rebuilds into
// the embedded buffer, reorder-window bookkeeping, pooled ACK transmissions
// and the lazily re-armed RTO timer — must not touch the Go heap.
func TestRetransmitPathZeroAlloc(t *testing.T) {
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		MemBytes: 256 << 20,
		Cores:    2,
		RingSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	src := netip.AddrFrom4([4]byte{192, 168, 0, 1})
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	const segLen = 1500
	dropNext := false
	var arq *netstack.ArqSender
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
	recv := &netstack.Receiver{K: ma.Kernel}
	rr := netstack.NewReliableReceiver(recv, ma.Driver, 0, 0, arq)
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		rr.HandleSegment(task, skb)
	}
	cycle := func() {
		// One lost segment, three successors: their duplicate ACKs trigger
		// the fast retransmit that repairs the hole, and the final fresh
		// ACK empties the window before the next iteration.
		dropNext = true
		for i := 0; i < 4; i++ {
			arq.SendNext()
		}
		ma.Sim.RunUntilIdle()
		if arq.InFlight() != 0 {
			t.Fatalf("window not drained: %d in flight", arq.InFlight())
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
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
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		MemBytes: 256 << 20,
		Cores:    4, // Rings == Cores: 4 RX queues
		RingSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv := &netstack.Receiver{K: ma.Kernel}
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		recv.HandleSegment(task, skb)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
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

// TestCapCheckZeroAlloc gates the multi-tenant capability check itself: the
// two-compare validation the driver runs before every map and unmap on a
// tenant-owned ring. Both the accept path and the deny path (aggregate and
// per-tenant denial counters included) must stay off the Go heap — the
// counters are created at Register time, never on the check.
func TestCapCheckZeroAlloc(t *testing.T) {
	tab := tenant.NewTable(4)
	tab.SetStats(stats.NewRegistry())
	tab.AssignRing(0, 0)
	tab.AssignRing(1, 1)
	tab.Present(1, tenant.Handle{Tenant: 0}) // forged: wrong tenant
	cycle := func() {
		if !tab.CheckRing(0) {
			t.Fatal("valid capability denied")
		}
		if tab.CheckRing(1) {
			t.Fatal("forged capability passed")
		}
		if tab.CheckRing(2) { // unowned: passes uncounted
		}
	}
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
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		MemBytes: 256 << 20,
		Cores:    2,
		RingSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// bypassAllocMachine assembles a bypass machine with a set-up, started
// polling driver for the 0-alloc gates. The caller must advance the engine
// with bounded Run windows — the poll ticker never goes idle, so
// RunUntilIdle would spin forever.
func bypassAllocMachine(t *testing.T, scheme testbed.Scheme) (*testbed.Machine, *netstack.BypassDriver) {
	t.Helper()
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   scheme,
		MemBytes: 256 << 20,
		Cores:    2,
		RingSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := netstack.NewBypassDriver(ma.Kernel, ma.NIC, 0, testbed.BypassDeviceID,
		scheme == testbed.SchemeBypassProt)
	var setupErr error
	d.Core().Submit(false, func(task *sim.Task) { setupErr = d.Setup(task) })
	ma.Sim.Run(ma.Sim.Now())
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	d.Start()
	t.Cleanup(d.Close)
	return ma, d
}

// TestBypassPollZeroAlloc gates the idle busy-poll loop: every tick submits
// the pinned poll task, harvests an empty used ring and charges the full
// spin interval. The pinned ticker, task free list and reused harvest
// buffer make the steady-state tick allocation-free.
func TestBypassPollZeroAlloc(t *testing.T) {
	ma, d := bypassAllocMachine(t, testbed.SchemeBypassRaw)
	interval := ma.Model.BypassPollInterval
	cycle := func() {
		ma.Sim.Run(ma.Sim.Now() + interval)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	polls := d.Polls
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("bypass poll tick allocates %.1f/op, want 0", allocs)
	}
	if d.Polls < polls+1000 {
		t.Fatalf("poll loop ticked %d times during measurement; the path under test did not run", d.Polls-polls)
	}
	if d.EmptyPolls == 0 {
		t.Fatal("no empty polls recorded; the idle spin path did not run")
	}
}

// TestBypassRXPathZeroAlloc gates the full bypass receive path in steady
// state: wire arrival, DMA through the per-app domain, used-ring publish,
// busy-poll harvest, run-to-completion delivery and the batched repost
// behind one doorbell. Runs the protected flavor so the IOMMU-translated
// path is the one measured.
func TestBypassRXPathZeroAlloc(t *testing.T) {
	ma, d := bypassAllocMachine(t, testbed.SchemeBypassProt)
	window := 4 * ma.Model.BypassPollInterval // covers DMA + publish + poll + repost
	hdr := []byte("hdr:steady")
	inject := func() {
		ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
		ma.Sim.Run(ma.Sim.Now() + window)
	}
	for i := 0; i < 200; i++ {
		inject()
	}
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
