package mem

import "fmt"

// Slab is a kmalloc-style size-class allocator layered on the buddy
// allocator. The reproduction uses it for "ordinary" kernel allocations:
// skbuff heads on the non-DAMN paths, shadow-buffer staging copies, and the
// sensitive-data objects of the co-location attack scenario. Its defining
// property for this paper is that *unrelated allocations share pages* —
// which is exactly why DMA-API-level IOMMU protection is only partial
// (§4.1): mapping a kmalloc'ed buffer for a device exposes every other
// object on the same page.
//
// As in Linux, the slab state of a page lives in its struct page: every
// page the slab owns carries FlagSlab. A slab page's Private holds the index
// + 1 of its record in pages; a whole-page allocation (larger than the
// biggest class) is a compound head with Private 0 and its order in Order.
type Slab struct {
	mem *Memory

	classes []sizeClass
	// pages holds one record per slab page. A released page's record goes
	// on freeRecs and is reused by index, with its free-index capacity, so
	// the table never grows past the peak number of live slab pages.
	pages    []slabPage
	freeRecs []int32

	bytesAllocated int64
}

// slabClassSizes are the kmalloc size classes, powers of two from 8 B to
// 4 KiB, as in Linux's kmalloc caches.
var slabClassSizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

type sizeClass struct {
	size    int
	partial []int32 // records of pages with at least one free object
}

type slabPage struct {
	head  *Page
	class int
	free  []int32 // free object indexes within the page
	inUse int
}

// NewSlab constructs a slab allocator over the given memory.
func NewSlab(m *Memory) *Slab {
	s := &Slab{mem: m, classes: make([]sizeClass, len(slabClassSizes))}
	for i, sz := range slabClassSizes {
		s.classes[i].size = sz
	}
	return s
}

// classFor returns the index of the smallest class that fits size, or -1 if
// the request needs whole pages.
func (s *Slab) classFor(size int) int {
	for i := range s.classes {
		if size <= s.classes[i].size {
			return i
		}
	}
	return -1
}

// Alloc returns the physical address of a newly allocated object of at
// least the given size, 8-byte aligned, physically contiguous — the
// semantics the paper gives for kmalloc (§5.1). node selects the preferred
// NUMA node.
func (s *Slab) Alloc(size, node int) (PhysAddr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: slab alloc of size %d", size)
	}
	ci := s.classFor(size)
	if ci < 0 {
		// Whole-page allocation: AllocPages leaves the head's Private 0
		// and its order in Order.
		order := 0
		for (PageSize << order) < size {
			order++
		}
		head, err := s.mem.AllocPages(order, node)
		if err != nil {
			return 0, err
		}
		head.SetFlags(FlagSlab)
		s.bytesAllocated += int64(PageSize << order)
		return head.PFN().Addr(), nil
	}
	c := &s.classes[ci]
	if len(c.partial) == 0 {
		ri, err := s.newSlabPage(ci, node)
		if err != nil {
			return 0, err
		}
		c.partial = append(c.partial, ri)
	}
	sp := &s.pages[c.partial[len(c.partial)-1]]
	idx := sp.free[len(sp.free)-1]
	sp.free = sp.free[:len(sp.free)-1]
	sp.inUse++
	if len(sp.free) == 0 {
		c.partial = c.partial[:len(c.partial)-1]
	}
	s.bytesAllocated += int64(c.size)
	return sp.head.PFN().Addr() + PhysAddr(int(idx)*c.size), nil
}

// newSlabPage takes a page for class ci and returns its record index.
func (s *Slab) newSlabPage(ci, node int) (int32, error) {
	head, err := s.mem.AllocPages(0, node)
	if err != nil {
		return 0, err
	}
	var ri int32
	if k := len(s.freeRecs); k > 0 {
		ri = s.freeRecs[k-1]
		s.freeRecs = s.freeRecs[:k-1]
	} else {
		ri = int32(len(s.pages))
		s.pages = append(s.pages, slabPage{})
	}
	sp := &s.pages[ri]
	sp.head, sp.class, sp.inUse = head, ci, 0
	sp.free = sp.free[:0]
	for i := PageSize/s.classes[ci].size - 1; i >= 0; i-- {
		sp.free = append(sp.free, int32(i))
	}
	head.SetFlags(FlagSlab)
	head.Private = uint64(ri) + 1
	return ri, nil
}

// Free releases an object previously returned by Alloc.
func (s *Slab) Free(pa PhysAddr) {
	head := s.mem.Head(s.mem.PageOfAddr(pa))
	if !head.Has(FlagSlab) {
		panic(fmt.Sprintf("mem: slab free of non-slab address %#x", pa))
	}
	if head.Private == 0 {
		order := int(head.Order)
		head.ClearFlags(FlagSlab)
		s.bytesAllocated -= int64(PageSize << order)
		s.mem.FreePages(head, order)
		return
	}
	ri := int32(head.Private - 1)
	sp := &s.pages[ri]
	c := &s.classes[sp.class]
	off := int(pa - head.PFN().Addr())
	if off%c.size != 0 {
		panic(fmt.Sprintf("mem: slab free of unaligned address %#x (class %d)", pa, c.size))
	}
	idx := int32(off / c.size)
	for _, f := range sp.free {
		if f == idx {
			panic(fmt.Sprintf("mem: slab double free of %#x", pa))
		}
	}
	wasFull := len(sp.free) == 0
	sp.free = append(sp.free, idx)
	sp.inUse--
	s.bytesAllocated -= int64(c.size)
	if sp.inUse == 0 {
		// Return the empty page to the buddy allocator.
		if !wasFull {
			for i, p := range c.partial {
				if p == ri {
					c.partial = append(c.partial[:i], c.partial[i+1:]...)
					break
				}
			}
		}
		head.ClearFlags(FlagSlab)
		head.Private = 0
		sp.head = nil
		s.freeRecs = append(s.freeRecs, ri)
		s.mem.FreePages(head, 0)
		return
	}
	if wasFull {
		c.partial = append(c.partial, ri)
	}
}

// BytesAllocated reports the live allocation footprint.
func (s *Slab) BytesAllocated() int64 { return s.bytesAllocated }
