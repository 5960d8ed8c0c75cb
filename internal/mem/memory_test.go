package mem

import (
	"math/rand"
	"testing"
)

func newTestMemory(t testing.TB, bytes int64, nodes int) *Memory {
	t.Helper()
	m, err := New(Config{TotalBytes: bytes, NUMANodes: nodes})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewMemoryLayout(t *testing.T) {
	m := newTestMemory(t, 16<<20, 2)
	if got, want := m.NumPages(), 4096; got != want {
		t.Fatalf("NumPages = %d, want %d", got, want)
	}
	if m.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", m.NumNodes())
	}
	if !m.PageOf(0).Has(FlagReserved) {
		t.Error("frame 0 should be reserved")
	}
	if m.PageOf(100).Node != 0 {
		t.Errorf("pfn 100 node = %d, want 0", m.PageOf(100).Node)
	}
	if m.PageOf(3000).Node != 1 {
		t.Errorf("pfn 3000 node = %d, want 1", m.PageOf(3000).Node)
	}
}

func TestNewMemoryTooSmall(t *testing.T) {
	if _, err := New(Config{TotalBytes: PageSize, NUMANodes: 2}); err == nil {
		t.Fatal("expected error for tiny memory")
	}
}

func TestAllocFreeSinglePage(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	before := m.TotalFreePages()
	p, err := m.AllocPages(0, 0)
	if err != nil {
		t.Fatalf("AllocPages: %v", err)
	}
	if p.PFN() == 0 {
		t.Fatal("allocated reserved frame 0")
	}
	if p.RefCount() != 1 {
		t.Errorf("fresh page refcount = %d, want 1", p.RefCount())
	}
	if m.TotalFreePages() != before-1 {
		t.Errorf("free pages = %d, want %d", m.TotalFreePages(), before-1)
	}
	m.FreePages(p, 0)
	if m.TotalFreePages() != before {
		t.Errorf("after free, free pages = %d, want %d", m.TotalFreePages(), before)
	}
}

func TestAllocCompound(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	p, err := m.AllocPages(4, 0) // 16 pages = a DAMN chunk
	if err != nil {
		t.Fatalf("AllocPages: %v", err)
	}
	if !p.IsCompoundHead() {
		t.Error("head page should have FlagHead")
	}
	if p.Order != 4 {
		t.Errorf("head order = %d, want 4", p.Order)
	}
	for i := 1; i < 16; i++ {
		tail := m.PageOf(p.PFN() + PFN(i))
		if !tail.IsCompoundTail() {
			t.Fatalf("page %d should be a tail", i)
		}
		if tail.HeadPFN != p.PFN() {
			t.Fatalf("tail %d head = %d, want %d", i, tail.HeadPFN, p.PFN())
		}
		if m.Head(tail) != p {
			t.Fatalf("Head(tail %d) mismatch", i)
		}
	}
	m.FreePages(p, 4)
	for i := 1; i < 16; i++ {
		if m.PageOf(p.PFN() + PFN(i)).IsCompoundTail() {
			t.Fatalf("tail flag not cleared on page %d after free", i)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	m := newTestMemory(t, 64<<20, 1)
	for order := 0; order <= MaxOrder; order++ {
		p, err := m.AllocPages(order, 0)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if uint64(p.PFN())&((1<<order)-1) != 0 {
			t.Errorf("order-%d block at pfn %d is unaligned", order, p.PFN())
		}
		m.FreePages(p, order)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	p, _ := m.AllocPages(0, 0)
	m.FreePages(p, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.FreePages(p, 0)
}

func TestOutOfMemory(t *testing.T) {
	m := newTestMemory(t, 1<<20, 1) // 256 pages
	var blocks []*Page
	for {
		p, err := m.AllocPages(0, 0)
		if err != nil {
			break
		}
		blocks = append(blocks, p)
	}
	if len(blocks) != 255 { // 256 minus reserved frame 0
		t.Errorf("allocated %d pages, want 255", len(blocks))
	}
	if _, err := m.AllocPages(0, 0); err == nil {
		t.Fatal("expected OOM")
	}
	for _, p := range blocks {
		m.FreePages(p, 0)
	}
	if got := m.TotalFreePages(); got != 255 {
		t.Errorf("after freeing all: %d free, want 255", got)
	}
}

func TestBuddyCoalescing(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	// Allocate everything as order-0, free it all, then a MaxOrder
	// allocation must succeed again — proving full coalescing.
	var blocks []*Page
	for {
		p, err := m.AllocPages(0, 0)
		if err != nil {
			break
		}
		blocks = append(blocks, p)
	}
	for i := len(blocks) - 1; i >= 0; i-- { // reverse order for variety
		m.FreePages(blocks[i], 0)
	}
	p, err := m.AllocPages(MaxOrder, 0)
	if err != nil {
		t.Fatalf("MaxOrder alloc after full free failed: %v", err)
	}
	m.FreePages(p, MaxOrder)
}

func TestNUMAPreference(t *testing.T) {
	m := newTestMemory(t, 32<<20, 2)
	p0, err := m.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Node != 0 {
		t.Errorf("node-0 alloc landed on node %d", p0.Node)
	}
	if p1.Node != 1 {
		t.Errorf("node-1 alloc landed on node %d", p1.Node)
	}
	m.FreePages(p0, 0)
	m.FreePages(p1, 0)
}

func TestNUMAFallback(t *testing.T) {
	m := newTestMemory(t, 4<<20, 2) // 512 pages per node
	var blocks []*Page
	// Exhaust node 0.
	for {
		p, err := m.AllocPages(0, 0)
		if err != nil || p.Node != 0 {
			if err == nil {
				blocks = append(blocks, p)
			}
			break
		}
		blocks = append(blocks, p)
	}
	// The last allocation (or the next) must have fallen back to node 1.
	p, err := m.AllocPages(0, 0)
	if err != nil {
		t.Fatalf("fallback alloc failed: %v", err)
	}
	if p.Node != 1 {
		t.Errorf("fallback landed on node %d, want 1", p.Node)
	}
	m.FreePages(p, 0)
	for _, b := range blocks {
		m.FreePages(b, 0)
	}
}

func TestReadWriteZero(t *testing.T) {
	m := newTestMemory(t, 8<<20, 1)
	p, _ := m.AllocPages(0, 0)
	pa := p.PFN().Addr()
	src := []byte("hello, DMA world")
	m.Write(pa+5, src)
	dst := make([]byte, len(src))
	m.Read(pa+5, dst)
	if string(dst) != string(src) {
		t.Fatalf("read back %q, want %q", dst, src)
	}
	m.Zero(pa, PageSize)
	if m.ZeroedBytes() != PageSize {
		t.Errorf("ZeroedBytes = %d, want %d", m.ZeroedBytes(), PageSize)
	}
	m.Read(pa+5, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("Zero did not clear page")
		}
	}
	m.FreePages(p, 0)
}

func TestBytesBounds(t *testing.T) {
	m := newTestMemory(t, 8<<20, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Bytes did not panic")
		}
	}()
	m.Bytes(PhysAddr(8<<20)-10, 100)
}

// TestCheckRangeEdges pins the bounds check at the end of RAM and at the
// top of the 64-bit address space, where pa+n wraps: a passthrough device
// supplies pa, so a wrapping range must fail the check, not pass it and
// panic in the copy.
func TestCheckRangeEdges(t *testing.T) {
	const size = 8 << 20
	m := newTestMemory(t, size, 1)
	for _, c := range []struct {
		pa   PhysAddr
		n    int
		fits bool
	}{
		{0, size, true},
		{size - 4096, 4096, true},
		{size, 0, true},
		{size - 4096, 4097, false},
		{size, 1, false},
		{size + 1, 0, false},
		{0, -1, false},
		{0xFFFFFFFFFFFFF000, 4096, false},
		{1<<64 - 100, 100, false},
	} {
		err := m.CheckRange(c.pa, c.n)
		if (err == nil) != c.fits {
			t.Errorf("CheckRange(%#x, %d) = %v, want fits=%v", c.pa, c.n, err, c.fits)
		}
	}
}

func TestPageFlagOps(t *testing.T) {
	var p Page
	p.SetFlags(FlagDAMN | FlagSlab)
	if !p.Has(FlagDAMN) || !p.Has(FlagSlab) {
		t.Fatal("flags not set")
	}
	p.ClearFlags(FlagDAMN)
	if p.Has(FlagDAMN) {
		t.Fatal("FlagDAMN not cleared")
	}
	if !p.Has(FlagSlab) {
		t.Fatal("FlagSlab should survive")
	}
}

func TestRefCounting(t *testing.T) {
	var p Page
	p.SetRefCount(1)
	if p.Get() != 2 {
		t.Fatal("Get should return 2")
	}
	if p.Put() != 1 {
		t.Fatal("Put should return 1")
	}
	if p.Put() != 0 {
		t.Fatal("Put should return 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative refcount did not panic")
		}
	}()
	p.Put()
}

// TestBuddyRandomized is a randomized stress test: interleave allocations
// and frees of random orders and verify that (a) no two live blocks
// overlap, and (b) after freeing everything the free-page count returns to
// its initial value.
func TestBuddyRandomized(t *testing.T) {
	m := newTestMemory(t, 32<<20, 2)
	rng := rand.New(rand.NewSource(42))
	initial := m.TotalFreePages()

	type block struct {
		p     *Page
		order int
	}
	var live []block
	owned := map[PFN]bool{}

	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			order := rng.Intn(5)
			p, err := m.AllocPages(order, rng.Intn(2))
			if err != nil {
				continue // OOM under load is fine
			}
			for i := PFN(0); i < 1<<order; i++ {
				if owned[p.PFN()+i] {
					t.Fatalf("step %d: frame %d double-allocated", step, p.PFN()+i)
				}
				owned[p.PFN()+i] = true
			}
			live = append(live, block{p, order})
		} else {
			i := rng.Intn(len(live))
			b := live[i]
			for j := PFN(0); j < 1<<b.order; j++ {
				delete(owned, b.p.PFN()+j)
			}
			m.FreePages(b.p, b.order)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, b := range live {
		m.FreePages(b.p, b.order)
	}
	if got := m.TotalFreePages(); got != initial {
		t.Fatalf("leaked frames: %d free, want %d", got, initial)
	}
}

func TestShrinkerRunsUnderPressure(t *testing.T) {
	m := newTestMemory(t, 1<<20, 1) // 256 pages
	// A cache subsystem holds half the memory and registers a shrinker.
	var cached []*Page
	for i := 0; i < 128; i++ {
		p, err := m.AllocPages(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		cached = append(cached, p)
	}
	m.RegisterShrinker(func() int64 {
		n := int64(len(cached))
		for _, p := range cached {
			m.FreePages(p, 0)
		}
		cached = nil
		return n
	})
	// Exhaust the rest.
	var hogs []*Page
	for {
		p, err := m.AllocPages(0, 0)
		if err != nil {
			break
		}
		hogs = append(hogs, p)
		if len(hogs) > 300 {
			break
		}
	}
	// The shrinker must have been invoked and satisfied the tail of the
	// allocations from the reclaimed cache.
	if m.ReclaimRuns() == 0 {
		t.Fatal("no reclaim under pressure")
	}
	if m.ReclaimedPages() != 128 {
		t.Fatalf("reclaimed %d pages, want 128", m.ReclaimedPages())
	}
	if len(hogs) != 255 { // the whole machine minus the reserved frame
		t.Fatalf("allocated %d pages, want 255 after reclaim", len(hogs))
	}
}

func TestReclaimWithoutShrinkersFailsFast(t *testing.T) {
	m := newTestMemory(t, 1<<20, 1)
	for {
		if _, err := m.AllocPages(0, 0); err != nil {
			break
		}
	}
	if _, err := m.AllocPages(0, 0); err == nil {
		t.Fatal("expected OOM")
	}
	if m.ReclaimedPages() != 0 {
		t.Fatal("phantom reclaim")
	}
}
