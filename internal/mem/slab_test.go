package mem

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSlabAllocAligned(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	s := NewSlab(m)
	for _, size := range []int{1, 8, 9, 100, 500, 4096} {
		pa, err := s.Alloc(size, 0)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		if pa%8 != 0 {
			t.Errorf("Alloc(%d) = %#x, not 8-byte aligned", size, pa)
		}
		s.Free(pa)
	}
}

func TestSlabCoLocation(t *testing.T) {
	// This is the property the paper's §4.1 exploits: two unrelated
	// kmalloc objects can land on the same physical page, so
	// page-granularity IOMMU mappings leak neighbours.
	m := newTestMemory(t, 16<<20, 1)
	s := NewSlab(m)
	a, err := s.Alloc(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if PFNOf(a) != PFNOf(b) {
		t.Fatalf("consecutive 256 B allocations on different pages (%d vs %d); co-location property broken", PFNOf(a), PFNOf(b))
	}
	s.Free(a)
	s.Free(b)
}

func TestSlabLargeAllocation(t *testing.T) {
	m := newTestMemory(t, 32<<20, 1)
	s := NewSlab(m)
	pa, err := s.Alloc(3*PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa&PageMask != 0 {
		t.Errorf("large alloc %#x not page aligned", pa)
	}
	// A 3-page request rounds to an order-2 block.
	if got := s.BytesAllocated(); got != 4*PageSize {
		t.Errorf("BytesAllocated = %d, want %d", got, 4*PageSize)
	}
	s.Free(pa)
	if got := s.BytesAllocated(); got != 0 {
		t.Errorf("BytesAllocated after free = %d, want 0", got)
	}
}

func TestSlabPageRecycled(t *testing.T) {
	m := newTestMemory(t, 8<<20, 1)
	s := NewSlab(m)
	free0 := m.TotalFreePages()
	var addrs []PhysAddr
	for i := 0; i < PageSize/64; i++ { // fill exactly one 64 B slab page
		pa, err := s.Alloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, pa)
	}
	if m.TotalFreePages() != free0-1 {
		t.Fatalf("expected exactly one backing page, free delta = %d", free0-m.TotalFreePages())
	}
	for _, pa := range addrs {
		s.Free(pa)
	}
	if m.TotalFreePages() != free0 {
		t.Fatal("empty slab page not returned to buddy allocator")
	}
}

func TestSlabDoubleFreePanics(t *testing.T) {
	m := newTestMemory(t, 8<<20, 1)
	s := NewSlab(m)
	pa, _ := s.Alloc(64, 0)
	s.Free(pa)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	s.Free(pa)
}

func TestSlabDistinctAddresses(t *testing.T) {
	// Property test: any sequence of allocation sizes yields pairwise
	// non-overlapping objects.
	m := newTestMemory(t, 64<<20, 1)
	s := NewSlab(m)
	check := func(sizes []uint16) bool {
		type span struct{ lo, hi PhysAddr }
		var spans []span
		var addrs []PhysAddr
		for _, raw := range sizes {
			size := int(raw)%2048 + 1
			pa, err := s.Alloc(size, 0)
			if err != nil {
				return false
			}
			for _, sp := range spans {
				if pa < sp.hi && sp.lo < pa+PhysAddr(size) {
					return false
				}
			}
			spans = append(spans, span{pa, pa + PhysAddr(size)})
			addrs = append(addrs, pa)
		}
		for _, pa := range addrs {
			s.Free(pa)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlabStress(t *testing.T) {
	m := newTestMemory(t, 32<<20, 2)
	s := NewSlab(m)
	rng := rand.New(rand.NewSource(7))
	live := map[PhysAddr]int{}
	for i := 0; i < 10000; i++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			size := rng.Intn(8192) + 1
			pa, err := s.Alloc(size, rng.Intn(2))
			if err != nil {
				continue
			}
			live[pa] = size
		} else {
			for pa := range live {
				s.Free(pa)
				delete(live, pa)
				break
			}
		}
	}
	for pa := range live {
		s.Free(pa)
	}
	if got := s.BytesAllocated(); got != 0 {
		t.Fatalf("leaked %d bytes", got)
	}
}

// TestSlabStateInPageStruct: the slab keeps its state in the page struct. A
// slab page's head carries FlagSlab and its record index + 1 in Private; a
// whole-page allocation's head carries FlagSlab, Private 0 and its order.
// Freeing either, the whole-page one through any address inside it, gives
// every page back.
func TestSlabStateInPageStruct(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	s := NewSlab(m)
	free0 := m.TotalFreePages()

	small, err := s.Alloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := m.PageOfAddr(small)
	if !p.Has(FlagSlab) || p.Private == 0 || s.pages[p.Private-1].head != p {
		t.Fatalf("slab page: FlagSlab %v, Private %d; want FlagSlab and the index + 1 of its record", p.Has(FlagSlab), p.Private)
	}
	for _, off := range []PhysAddr{0, PageSize + 8} {
		large, err := s.Alloc(5*PageSize, 0) // rounds to an order-3 block
		if err != nil {
			t.Fatal(err)
		}
		h := m.PageOfAddr(large)
		if !h.Has(FlagSlab|FlagHead) || h.Private != 0 || h.Order != 3 {
			t.Fatalf("whole-page head: flags %#x, Private %d, Order %d; want FlagSlab|FlagHead, 0, 3", h.flags, h.Private, h.Order)
		}
		s.Free(large + off)
		if h.Has(FlagSlab) {
			t.Fatal("a freed whole-page allocation keeps FlagSlab")
		}
	}
	s.Free(small)
	if p.Has(FlagSlab) {
		t.Fatal("a released slab page keeps FlagSlab")
	}
	if got := m.TotalFreePages(); got != free0 {
		t.Fatalf("TotalFreePages = %d after freeing everything, want %d", got, free0)
	}
	if got := s.BytesAllocated(); got != 0 {
		t.Fatalf("BytesAllocated = %d after freeing everything", got)
	}
}

// TestSlabRecordsReusedByIndex: rounds of filling and emptying one size class
// reuse the same record indexes, the record table never grows past the peak
// number of live slab pages, and a released page keeps no slab state: no
// FlagSlab, and Private 0 unless the buddy allocator put its free-list link
// there.
func TestSlabRecordsReusedByIndex(t *testing.T) {
	const pages, size = 8, 256
	m := newTestMemory(t, 16<<20, 1)
	s := NewSlab(m)
	var first map[uint64]bool
	for round := 0; round < 4; round++ {
		var addrs []PhysAddr
		recs := map[uint64]bool{}
		for i := 0; i < pages*PageSize/size; i++ {
			pa, err := s.Alloc(size, 0)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, pa)
			recs[m.PageOfAddr(pa).Private] = true
		}
		if round == 0 {
			first = recs
		}
		if !maps.Equal(recs, first) || len(recs) != pages {
			t.Fatalf("round %d used records %v, round 0 %v", round, recs, first)
		}
		if len(s.pages) != pages {
			t.Fatalf("round %d: %d records for %d live pages", round, len(s.pages), pages)
		}
		// Odd rounds free from the top, so pages leave the partial list
		// from both ends.
		if round%2 == 1 {
			slices.Reverse(addrs)
		}
		for _, pa := range addrs {
			s.Free(pa)
		}
		for _, pa := range addrs {
			p := m.PageOfAddr(pa)
			if p.Has(FlagSlab) || (!p.Has(FlagBuddy) && p.Private != 0) {
				t.Fatalf("round %d: released page %d keeps FlagSlab %v, Private %d", round, p.PFN(), p.Has(FlagSlab), p.Private)
			}
		}
	}
}

// TestSlabFreeOfForeignAddressPanics: Free panics on an address the slab
// does not own: inside a DAMN chunk, on a free buddy page, or on a page
// taken straight from the page allocator.
func TestSlabFreeOfForeignAddressPanics(t *testing.T) {
	m := newTestMemory(t, 16<<20, 1)
	s := NewSlab(m)
	chunk, err := m.AllocPages(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	flag := m.PageOf(chunk.PFN() + 2) // DAMN's flag page (§5.5)
	flag.SetFlags(FlagDAMN)
	flag.Private = 1
	loose, err := m.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	freed, err := m.AllocPages(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.FreePages(freed, 0)
	for _, c := range []struct {
		name string
		pa   PhysAddr
	}{
		{"DAMN chunk", chunk.PFN().Addr() + 3*PageSize + 64},
		{"free buddy page", freed.PFN().Addr()},
		{"non-slab page", loose.PFN().Addr()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free on a %s did not panic", c.name)
				}
			}()
			s.Free(c.pa)
		}()
	}
}
