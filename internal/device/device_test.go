package device

import (
	"testing"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

type rig struct {
	se    *sim.Engine
	mem   *mem.Memory
	u     *iommu.IOMMU
	model *perf.Model
	cores []*sim.Core
}

func newRig(t *testing.T, nCores int) *rig {
	t.Helper()
	m, err := mem.New(mem.Config{TotalBytes: 64 << 20, NUMANodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	se := sim.NewEngine(1)
	model := perf.Default28Core()
	var cores []*sim.Core
	for i := 0; i < nCores; i++ {
		cores = append(cores, sim.NewCore(se, i, 0, model.CoreHz))
	}
	return &rig{se: se, mem: m, u: iommu.New(m), model: model, cores: cores}
}

func (r *rig) mapBuf(t *testing.T, dev, order int, perm iommu.Perm, v iommu.IOVA) mem.PhysAddr {
	t.Helper()
	p, err := r.mem.AllocPages(order, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa := p.PFN().Addr()
	if err := r.u.Map(dev, v, pa, mem.PageSize<<order, perm); err != nil {
		t.Fatal(err)
	}
	return pa
}

func defaultNIC(r *rig) *NIC {
	r.u.AttachDevice(1)
	return NewNIC(r.se, r.u, r.model, nil, r.cores, NICConfig{
		ID: 1, Ports: 2, RingSize: 64, TxRing: 64, Rings: len(r.cores),
		WireGbps: 100, PCIeGbps: 106,
	})
}

func TestNICRXDeliversThroughIOMMU(t *testing.T) {
	r := newRig(t, 1)
	n := defaultNIC(r)
	pa := r.mapBuf(t, 1, 4, iommu.PermWrite, 0x100000)

	var got []RXCompletion
	n.OnRX(func(_ *sim.Task, ring int, comps []RXCompletion) { got = append(got, comps...) })
	if err := n.PostRX(0, RXDesc{IOVA: 0x100000, Size: 64 << 10, Cookie: "buf0"}); err != nil {
		t.Fatal(err)
	}
	hdr := []byte("ETH|IP|TCP hdr")
	n.InjectRX(0, Segment{Flow: 1, Len: 9000, Header: hdr})
	r.se.RunUntilIdle()

	if len(got) != 1 {
		t.Fatalf("completions = %d", len(got))
	}
	if got[0].Desc.Cookie != "buf0" {
		t.Fatal("wrong descriptor completed")
	}
	if got[0].Written != len(hdr) {
		t.Fatalf("Written = %d", got[0].Written)
	}
	// The header bytes really landed in host memory via translation.
	check := make([]byte, len(hdr))
	r.mem.Read(pa, check)
	if string(check) != string(hdr) {
		t.Fatalf("memory holds %q", check)
	}
	if n.RxSegments != 1 || n.RxBytes != 9000 {
		t.Fatalf("stats: %d segs, %d bytes", n.RxSegments, n.RxBytes)
	}
}

func TestNICRXFlowControlParks(t *testing.T) {
	r := newRig(t, 1)
	n := defaultNIC(r)
	delivered := 0
	n.OnRX(func(_ *sim.Task, ring int, comps []RXCompletion) { delivered += len(comps) })
	// No buffers posted: the segment parks (lossless flow control).
	n.InjectRX(0, Segment{Len: 9000, Header: []byte("h")})
	r.se.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("segment delivered without buffers")
	}
	if n.RxStalls != 1 {
		t.Fatalf("RxStalls = %d", n.RxStalls)
	}
	// Posting a buffer releases it.
	r.mapBuf(t, 1, 4, iommu.PermWrite, 0x100000)
	n.PostRX(0, RXDesc{IOVA: 0x100000, Size: 64 << 10})
	r.se.RunUntilIdle()
	if delivered != 1 {
		t.Fatalf("delivered = %d after posting", delivered)
	}
}

func TestNICRXFaultBlocked(t *testing.T) {
	r := newRig(t, 1)
	n := defaultNIC(r)
	var comp RXCompletion
	n.OnRX(func(_ *sim.Task, ring int, comps []RXCompletion) { comp = comps[0] })
	// Post a descriptor whose IOVA is not mapped: the DMA must fault.
	n.PostRX(0, RXDesc{IOVA: 0xDEAD000, Size: 4096})
	n.InjectRX(0, Segment{Len: 1500, Header: []byte("attack")})
	r.se.RunUntilIdle()
	if n.RxBlocked != 1 {
		t.Fatalf("RxBlocked = %d", n.RxBlocked)
	}
	if comp.Written != 0 {
		t.Fatal("fault should deliver zero bytes")
	}
}

func TestNICWirePacing(t *testing.T) {
	// 100 Gb/s port: a 64 KiB segment takes ~5.24 us of wire time; two
	// segments injected together complete ~one wire-time apart.
	r := newRig(t, 1)
	n := defaultNIC(r)
	var times []sim.Time
	n.OnRX(func(ta *sim.Task, ring int, comps []RXCompletion) { times = append(times, ta.Start()) })
	r.mapBuf(t, 1, 4, iommu.PermWrite, 0x100000)
	r.mapBuf(t, 1, 4, iommu.PermWrite, 0x200000)
	n.PostRX(0, RXDesc{IOVA: 0x100000, Size: 64 << 10}, RXDesc{IOVA: 0x200000, Size: 64 << 10})
	seg := Segment{Len: 64 << 10, Header: []byte("h")}
	n.InjectRX(0, seg)
	n.InjectRX(0, seg)
	r.se.RunUntilIdle()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1] - times[0]
	wire := sim.FromSeconds(float64(64<<10) / (100e9 / 8))
	if gap < wire*9/10 || gap > wire*2 {
		t.Fatalf("inter-delivery gap %v, want ≈ %v", gap, wire)
	}
}

func TestNICTXRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	n := defaultNIC(r)
	pa := r.mapBuf(t, 1, 4, iommu.PermRead, 0x300000)
	r.mem.Write(pa, []byte("tx payload"))
	var done []TXDesc
	n.OnTXComplete(func(_ *sim.Task, ring int, descs []TXDesc) { done = append(done, descs...) })
	if err := n.PostTX(0, 0, &TXDesc{IOVA: 0x300000, Size: 9000, Cookie: 42}); err != nil {
		t.Fatal(err)
	}
	if n.TXInFlight(0) != 1 {
		t.Fatal("descriptor not in flight")
	}
	r.se.RunUntilIdle()
	if len(done) != 1 || done[0].Cookie != 42 {
		t.Fatalf("completion: %+v", done)
	}
	if n.TXInFlight(0) != 0 {
		t.Fatal("in-flight not drained")
	}
	if n.TxBytes != 9000 {
		t.Fatalf("TxBytes = %d", n.TxBytes)
	}
}

func TestNICTXRingLimit(t *testing.T) {
	r := newRig(t, 1)
	r.u.AttachDevice(1)
	n := NewNIC(r.se, r.u, r.model, nil, r.cores, NICConfig{
		ID: 1, Ports: 1, RingSize: 4, TxRing: 2, Rings: 1, WireGbps: 100, PCIeGbps: 106,
	})
	r.mapBuf(t, 1, 0, iommu.PermRead, 0x400000)
	d := TXDesc{IOVA: 0x400000, Size: 1500}
	if err := n.PostTX(0, 0, &d); err != nil {
		t.Fatal(err)
	}
	if err := n.PostTX(0, 0, &d); err != nil {
		t.Fatal(err)
	}
	if err := n.PostTX(0, 0, &d); err == nil {
		t.Fatal("ring overflow accepted")
	}
}

func TestMaliciousBlockedByMappings(t *testing.T) {
	r := newRig(t, 1)
	r.u.AttachDevice(1)
	attacker := NewMalicious(r.u, 1)
	// Nothing mapped: all reads fail.
	if _, err := attacker.TryRead(0x100000, 64); err == nil {
		t.Fatal("unmapped read succeeded")
	}
	// Map something read-only; write must still fail.
	r.mapBuf(t, 1, 0, iommu.PermRead, 0x100000)
	if _, err := attacker.TryRead(0x100000, 64); err != nil {
		t.Fatal("mapped read failed")
	}
	if err := attacker.TryWrite(0x100000, []byte("evil")); err == nil {
		t.Fatal("write through read-only mapping succeeded")
	}
}

func TestMaliciousScanFindsOnlyMapped(t *testing.T) {
	r := newRig(t, 1)
	r.u.AttachDevice(1)
	pa := r.mapBuf(t, 1, 0, iommu.PermRead, 0x200000)
	r.mem.Write(pa+100, []byte("SECRET-TOKEN"))
	attacker := NewMalicious(r.u, 1)
	found, readable := attacker.ScanForSecret(0x100000, 0x300000, []byte("SECRET-TOKEN"))
	if readable != 1 {
		t.Fatalf("readable pages = %d, want 1", readable)
	}
	if len(found) != 1 || found[0] != 0x200000 {
		t.Fatalf("found = %v", found)
	}
}

func TestMaliciousPassthroughReadsEverything(t *testing.T) {
	// With iommu-off the attacker owns physical memory — the baseline
	// insecurity of Fig 1's "no-iommu" configuration.
	r := newRig(t, 1)
	r.u.AttachDevice(1).Passthrough = true
	p, _ := r.mem.AllocPages(0, 0)
	r.mem.Write(p.PFN().Addr(), []byte("kernel secret"))
	attacker := NewMalicious(r.u, 1)
	got, err := attacker.TryRead(iommu.IOVA(p.PFN().Addr()), 13)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "kernel secret" {
		t.Fatalf("read %q", got)
	}
}

func TestNVMeCompletesReads(t *testing.T) {
	r := newRig(t, 2)
	r.u.AttachDevice(9)
	d := NewNVMe(r.se, r.u, r.model, r.cores, DefaultP3700(9))
	r.mapBuf(t, 9, 0, iommu.PermWrite, 0x500000)
	completions := 0
	err := d.SubmitRead(0, 0x500000, 4096, func(t *sim.Task, err error) {
		if err == nil {
			completions++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.se.RunUntilIdle()
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if d.Commands != 1 || d.Bytes != 4096 {
		t.Fatalf("stats %d/%d", d.Commands, d.Bytes)
	}
}

func TestNVMeIOPSCeiling(t *testing.T) {
	// 1000 512 B reads at 900 K IOPS must take ≥ ~1.1 ms of simulated
	// time regardless of CPU speed.
	r := newRig(t, 1)
	r.u.AttachDevice(9)
	d := NewNVMe(r.se, r.u, r.model, r.cores, DefaultP3700(9))
	r.mapBuf(t, 9, 0, iommu.PermWrite, 0x500000)
	var last sim.Time
	var submit func()
	n := 0
	submit = func() {
		if n >= 1000 {
			return
		}
		n++
		d.SubmitRead(0, 0x500000, 512, func(t *sim.Task, err error) {
			last = t.Start()
			submit()
		})
	}
	submit()
	r.se.RunUntilIdle()
	want := sim.FromSeconds(1000.0/900e3) * 99 / 100
	if last < want {
		t.Fatalf("1000 IOs finished in %v, device floor is %v", last, want)
	}
}

func TestNVMeQueueDepthEnforced(t *testing.T) {
	r := newRig(t, 1)
	r.u.AttachDevice(9)
	cfg := DefaultP3700(9)
	cfg.QueueDepth = 2
	d := NewNVMe(r.se, r.u, r.model, r.cores, cfg)
	r.mapBuf(t, 9, 0, iommu.PermWrite, 0x500000)
	cb := func(*sim.Task, error) {}
	if err := d.SubmitRead(0, 0x500000, 512, cb); err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitRead(0, 0x500000, 512, cb); err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitRead(0, 0x500000, 512, cb); err == nil {
		t.Fatal("queue depth not enforced")
	}
	r.se.RunUntilIdle()
}

func TestTOCTTOUFlipAgainstStaleIOTLB(t *testing.T) {
	// End-to-end wiring of the deferred-window attack at device level.
	r := newRig(t, 1)
	r.u.AttachDevice(1)
	pa := r.mapBuf(t, 1, 0, iommu.PermWrite, 0x600000)
	attacker := NewMalicious(r.u, 1)
	// Device uses the buffer once (IOTLB primed)...
	if err := attacker.TryWrite(0x600000, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	// ...the OS unmaps, but does not invalidate (deferred).
	if err := r.u.Unmap(1, 0x600000, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if !attacker.TOCTTOUFlip(0x600000, []byte("evil!"), 3) {
		t.Fatal("attack should land through the stale IOTLB entry")
	}
	got := make([]byte, 5)
	r.mem.Read(pa, got)
	if string(got) != "evil!" {
		t.Fatalf("memory holds %q", got)
	}
	// Invalidation closes the window.
	r.u.TLB().InvalidateDevice(1)
	if attacker.TOCTTOUFlip(0x600000, []byte("late."), 3) {
		t.Fatal("attack landed after invalidation")
	}
}

// TestRXPostedParkedBadRing: a bad ring index from the faults plane or a
// misconfigured workload must surface a checked error, not a panic.
func TestRXPostedParkedBadRing(t *testing.T) {
	r := newRig(t, 2)
	n := defaultNIC(r)
	for _, ring := range []int{-1, len(r.cores), 99} {
		if _, err := n.RXPosted(ring); err == nil {
			t.Errorf("RXPosted(%d): no error", ring)
		}
		if _, err := n.RXParked(ring); err == nil {
			t.Errorf("RXParked(%d): no error", ring)
		}
	}
	if got, err := n.RXPosted(0); err != nil || got != 0 {
		t.Fatalf("RXPosted(0) = %d, %v", got, err)
	}
}

// TestRSSRingSelection: the indirection table spreads hashes across every
// ring, an exact-match steering rule overrides it, and hash 0 (raw device
// tests that set no hash) stays on ring 0.
func TestRSSRingSelection(t *testing.T) {
	r := newRig(t, 4)
	n := defaultNIC(r)
	if got := n.RingFor(0); got != 0 {
		t.Fatalf("hash 0 landed on ring %d, want 0", got)
	}
	seen := map[int]bool{}
	for h := uint32(0); h < RSSTableSize; h++ {
		ring := n.RingFor(h)
		if ring < 0 || ring >= 4 {
			t.Fatalf("hash %d -> ring %d out of range", h, ring)
		}
		seen[ring] = true
	}
	if len(seen) != 4 {
		t.Fatalf("indirection table covers %d of 4 rings", len(seen))
	}
	if err := n.SteerFlow(7, 3); err != nil {
		t.Fatal(err)
	}
	if got := n.RingFor(7); got != 3 {
		t.Fatalf("steered hash routed to ring %d, want 3", got)
	}
	if err := n.SteerFlow(8, 4); err == nil {
		t.Fatal("SteerFlow accepted an out-of-range ring")
	}
	if err := n.SteerFlow(8, -1); err == nil {
		t.Fatal("SteerFlow accepted a negative ring")
	}
}

// TestInjectRXFollowsHash: segments land on the ring their hash selects.
func TestInjectRXFollowsHash(t *testing.T) {
	r := newRig(t, 4)
	n := defaultNIC(r)
	byRing := map[int]int{}
	n.OnRX(func(_ *sim.Task, ring int, comps []RXCompletion) { byRing[ring] += len(comps) })
	for ring := 0; ring < 4; ring++ {
		if err := n.PostRX(ring, RXDesc{IOVA: 0x100000, Size: 64 << 10, Cookie: ring}); err != nil {
			t.Fatal(err)
		}
	}
	r.mapBuf(t, 1, 4, iommu.PermWrite, 0x100000)
	// The default table is i % Rings over 128 slots, so hash r -> ring r.
	for h := uint32(0); h < 4; h++ {
		n.InjectRX(0, Segment{Flow: int(h), Hash: h, Len: 1500, Header: []byte("h")})
	}
	r.se.RunUntilIdle()
	for ring := 0; ring < 4; ring++ {
		if byRing[ring] != 1 {
			t.Fatalf("ring %d saw %d completions, want 1 (%v)", ring, byRing[ring], byRing)
		}
	}
}
