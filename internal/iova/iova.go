// Package iova provides I/O virtual address management: a Linux-style range
// allocator used by the standard DMA API path, and the bit-encoded IOVA
// scheme DAMN uses to make dma_unmap and damn_free self-describing
// (Figure 3 of the paper).
//
// The 48-bit IOVA space is partitioned by its most significant bit:
// addresses with bit 47 clear belong to the standard DMA API allocator;
// addresses with bit 47 set are DAMN IOVAs whose top bits encode the
// allocating CPU, the access rights and the device index, letting DAMN
// identify the owning DMA cache from the address alone (§5.4, §5.5).
package iova

import (
	"errors"
	"fmt"
	"sort"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
)

// ErrExhausted reports that no free range large enough exists. Callers in
// the DMA API match it with errors.Is to distinguish address-space
// exhaustion (retryable after unmaps) from caller bugs like a bad size.
var ErrExhausted = errors.New("iova: space exhausted")

// Space boundaries.
const (
	// DAMNBit is the partition bit: set ⇒ DAMN-owned IOVA.
	DAMNBit = iommu.IOVA(1) << 47
	// APISpaceLo/Hi bound the standard DMA API region (bit 47 clear);
	// Hi is exclusive and page aligned. The low 16 MiB are kept unused so
	// that a zero/near-zero IOVA is never valid — catching uninitialised
	// DMA addresses.
	APISpaceLo = iommu.IOVA(1 << 24)
	APISpaceHi = DAMNBit
)

// Allocator hands out page-aligned IOVA ranges from [lo, hi], top-down,
// first-fit, as the Linux intel-iommu allocator does.
type Allocator struct {
	lo   iommu.IOVA
	hi   iommu.IOVA
	free []span // sorted by base, non-overlapping, coalesced

	// pages holds each live range's size in pages at its base's page depth
	// (see Depth); 0 marks a depth where no live range starts. Allocation
	// is top-down, so live bases crowd the shallow depths and the table
	// stays as short as the deepest one, growing on demand up to maxDepth.
	pages []uint32
}

// maxDepth bounds the size table: a range is handed out only if its base
// lies within the top maxDepth pages (64 GiB) of the space, so the table
// never outgrows 64 MiB. Simulated machines map a few GiB at most.
const maxDepth = 1 << 24

type span struct {
	base iommu.IOVA
	size uint64 // bytes
}

// NewAllocator creates an allocator over [lo, hi]. Both bounds must be page
// aligned (hi exclusive). An empty range (lo >= hi) yields a valid
// allocator whose every Alloc fails with ErrExhausted — exhaustion is an
// error the DMA API surfaces, never a panic.
func NewAllocator(lo, hi iommu.IOVA) *Allocator {
	a := &Allocator{lo: lo, hi: hi}
	if lo < hi {
		a.free = []span{{base: lo, size: uint64(hi - lo)}}
	}
	return a
}

// NewAPIAllocator creates the allocator for the standard DMA API partition.
func NewAPIAllocator() *Allocator { return NewAllocator(APISpaceLo, APISpaceHi) }

// Alloc reserves size bytes (rounded up to pages) and returns the base
// IOVA. Allocation is top-down: the highest free range that fits is used,
// mirroring Linux's behaviour of growing the IOVA space downward from the
// DMA limit. A size larger than the table's reach (maxDepth pages) is
// rejected; a range that would start deeper than the reach is exhaustion.
func (a *Allocator) Alloc(size int) (iommu.IOVA, error) {
	need := (uint64(size) + mem.PageMask) &^ mem.PageMask
	if size <= 0 || need>>mem.PageShift > maxDepth {
		return 0, fmt.Errorf("iova: bad size %d", size)
	}
	for i := len(a.free) - 1; i >= 0; i-- {
		s := &a.free[i]
		if s.size < need {
			continue
		}
		// Take from the top of the span.
		base := s.base + iommu.IOVA(s.size-need)
		d := int((a.hi-base)>>mem.PageShift) - 1
		if d >= maxDepth {
			break // every lower span's range would start deeper still
		}
		s.size -= need
		if s.size == 0 {
			a.free = append(a.free[:i], a.free[i+1:]...)
		}
		if d >= len(a.pages) {
			a.pages = append(a.pages, make([]uint32, d+1-len(a.pages))...)
		}
		a.pages[d] = uint32(need >> mem.PageShift)
		return base, nil
	}
	return 0, fmt.Errorf("%w allocating %d bytes", ErrExhausted, size)
}

// Free releases a range returned by Alloc.
func (a *Allocator) Free(base iommu.IOVA) error {
	p := a.live(base)
	if p == nil {
		return fmt.Errorf("iova: free of unallocated base %#x", base)
	}
	size := uint64(*p) << mem.PageShift
	*p = 0
	a.insertFree(span{base: base, size: size})
	return nil
}

// SizeOf reports the allocated size of base, or 0.
func (a *Allocator) SizeOf(base iommu.IOVA) int {
	if p := a.live(base); p != nil {
		return int(*p) << mem.PageShift
	}
	return 0
}

// Depth reports how many whole pages lie between the page-aligned v and
// the top of the space, (hi-v)/PageSize - 1; false for an address outside
// [lo, hi) or not page aligned. The top page is depth 0.
func (a *Allocator) Depth(v iommu.IOVA) (int, bool) {
	if v < a.lo || v >= a.hi || v&mem.PageMask != 0 {
		return 0, false
	}
	return int((a.hi-v)>>mem.PageShift) - 1, true
}

// live returns the table slot holding the size of the live range based at
// base, or nil when no live range starts there.
func (a *Allocator) live(base iommu.IOVA) *uint32 {
	d, ok := a.Depth(base)
	if !ok || d >= len(a.pages) || a.pages[d] == 0 {
		return nil
	}
	return &a.pages[d]
}

// insertFree adds a span back, keeping the list sorted and coalesced.
func (a *Allocator) insertFree(s span) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base > s.base })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].base+iommu.IOVA(a.free[i].size) == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+iommu.IOVA(a.free[i-1].size) == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// FreeBytes reports the total free IOVA space (tests).
func (a *Allocator) FreeBytes() uint64 {
	var n uint64
	for _, s := range a.free {
		n += s.size
	}
	return n
}
