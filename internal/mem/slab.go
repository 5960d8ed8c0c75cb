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
type Slab struct {
	mem *Memory

	classes []*sizeClass
	// large allocations (> the biggest class) get whole page blocks;
	// track their order by head PFN for free.
	largeOrders map[PFN]int
	// pagesByPFN lets Free recover the slabPage from an object address.
	pagesByPFN map[PFN]*slabPage
	// spare recycles slabPage records (and their free-index capacity).
	// A short-lived object on an otherwise-empty page releases and
	// recreates its page every cycle — that page traffic is simulated
	// behaviour and stays; the host-side bookkeeping struct behind it
	// need not churn the Go heap. Bounded so a burst cannot pin memory.
	spare []*slabPage

	bytesAllocated int64
}

// slabClassSizes are the kmalloc size classes, powers of two from 8 B to
// 4 KiB, as in Linux's kmalloc caches.
var slabClassSizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

type sizeClass struct {
	size    int
	partial []*slabPage // pages with at least one free object
}

type slabPage struct {
	head     *Page
	objSize  int
	free     []int // free object indexes within the page
	nObjects int
	inUse    int
}

// NewSlab constructs a slab allocator over the given memory.
func NewSlab(m *Memory) *Slab {
	s := &Slab{mem: m, largeOrders: make(map[PFN]int), pagesByPFN: make(map[PFN]*slabPage)}
	for _, sz := range slabClassSizes {
		s.classes = append(s.classes, &sizeClass{size: sz})
	}
	return s
}

// classFor returns the index of the smallest class that fits size, or -1 if
// the request needs whole pages.
func (s *Slab) classFor(size int) int {
	for i, c := range s.classes {
		if size <= c.size {
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
		// Whole-page allocation.
		order := 0
		for (PageSize << order) < size {
			order++
		}
		head, err := s.mem.AllocPages(order, node)
		if err != nil {
			return 0, err
		}
		head.SetFlags(FlagSlab)
		s.largeOrders[head.PFN()] = order
		s.bytesAllocated += int64(PageSize << order)
		return head.PFN().Addr(), nil
	}
	c := s.classes[ci]
	if len(c.partial) == 0 {
		sp, err := s.newSlabPage(c.size, node)
		if err != nil {
			return 0, err
		}
		c.partial = append(c.partial, sp)
	}
	sp := c.partial[len(c.partial)-1]
	idx := sp.free[len(sp.free)-1]
	sp.free = sp.free[:len(sp.free)-1]
	sp.inUse++
	if len(sp.free) == 0 {
		c.partial = c.partial[:len(c.partial)-1]
	}
	s.bytesAllocated += int64(c.size)
	return sp.head.PFN().Addr() + PhysAddr(idx*sp.objSize), nil
}

func (s *Slab) newSlabPage(objSize, node int) (*slabPage, error) {
	head, err := s.mem.AllocPages(0, node)
	if err != nil {
		return nil, err
	}
	head.SetFlags(FlagSlab)
	n := PageSize / objSize
	var sp *slabPage
	if k := len(s.spare); k > 0 {
		sp = s.spare[k-1]
		s.spare = s.spare[:k-1]
		sp.head, sp.objSize, sp.nObjects, sp.inUse = head, objSize, n, 0
		sp.free = sp.free[:0]
	} else {
		sp = &slabPage{head: head, objSize: objSize, nObjects: n}
	}
	for i := n - 1; i >= 0; i-- {
		sp.free = append(sp.free, i)
	}
	// Record the slabPage so Free can find it from an object address.
	head.Private = uint64(objSize)
	s.pagesByPFN[head.PFN()] = sp
	return sp, nil
}

// Free releases an object previously returned by Alloc.
func (s *Slab) Free(pa PhysAddr) {
	pfn := PFNOf(pa)
	head := s.mem.Head(s.mem.PageOf(pfn))
	if order, ok := s.largeOrders[head.PFN()]; ok {
		head.ClearFlags(FlagSlab)
		delete(s.largeOrders, head.PFN())
		s.bytesAllocated -= int64(PageSize << order)
		s.mem.FreePages(head, order)
		return
	}
	sp, ok := s.pagesByPFN[pfn]
	if !ok {
		panic(fmt.Sprintf("mem: slab free of non-slab address %#x", pa))
	}
	off := int(pa - pfn.Addr())
	if off%sp.objSize != 0 {
		panic(fmt.Sprintf("mem: slab free of unaligned address %#x (class %d)", pa, sp.objSize))
	}
	idx := off / sp.objSize
	for _, f := range sp.free {
		if f == idx {
			panic(fmt.Sprintf("mem: slab double free of %#x", pa))
		}
	}
	wasFull := len(sp.free) == 0
	sp.free = append(sp.free, idx)
	sp.inUse--
	s.bytesAllocated -= int64(sp.objSize)
	ci := s.classFor(sp.objSize)
	c := s.classes[ci]
	if sp.inUse == 0 {
		// Return the empty page to the buddy allocator.
		if !wasFull {
			for i, p := range c.partial {
				if p == sp {
					c.partial = append(c.partial[:i], c.partial[i+1:]...)
					break
				}
			}
		}
		delete(s.pagesByPFN, sp.head.PFN())
		sp.head.ClearFlags(FlagSlab)
		sp.head.Private = 0
		s.mem.FreePages(sp.head, 0)
		if len(s.spare) < 128 {
			sp.head = nil
			s.spare = append(s.spare, sp)
		}
		return
	}
	if wasFull {
		c.partial = append(c.partial, sp)
	}
}

// BytesAllocated reports the live allocation footprint.
func (s *Slab) BytesAllocated() int64 { return s.bytesAllocated }
