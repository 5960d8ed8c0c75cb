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

	allocated map[iommu.IOVA]int // base -> size (bytes), for Free validation
}

type span struct {
	base iommu.IOVA
	size uint64 // bytes
}

// NewAllocator creates an allocator over [lo, hi]. Both bounds must be page
// aligned (hi exclusive). An empty range (lo >= hi) yields a valid
// allocator whose every Alloc fails with ErrExhausted — exhaustion is an
// error the DMA API surfaces, never a panic.
func NewAllocator(lo, hi iommu.IOVA) *Allocator {
	a := &Allocator{
		lo:        lo,
		hi:        hi,
		allocated: make(map[iommu.IOVA]int),
	}
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
// DMA limit.
func (a *Allocator) Alloc(size int) (iommu.IOVA, error) {
	if size <= 0 {
		return 0, fmt.Errorf("iova: bad size %d", size)
	}
	need := (uint64(size) + 0xFFF) &^ 0xFFF
	for i := len(a.free) - 1; i >= 0; i-- {
		s := &a.free[i]
		if s.size < need {
			continue
		}
		// Take from the top of the span.
		base := s.base + iommu.IOVA(s.size-need)
		s.size -= need
		if s.size == 0 {
			a.free = append(a.free[:i], a.free[i+1:]...)
		}
		a.allocated[base] = int(need)
		return base, nil
	}
	return 0, fmt.Errorf("%w allocating %d bytes", ErrExhausted, size)
}

// Free releases a range returned by Alloc.
func (a *Allocator) Free(base iommu.IOVA) error {
	size, ok := a.allocated[base]
	if !ok {
		return fmt.Errorf("iova: free of unallocated base %#x", base)
	}
	delete(a.allocated, base)
	a.insertFree(span{base: base, size: uint64(size)})
	return nil
}

// SizeOf reports the allocated size of base, or 0.
func (a *Allocator) SizeOf(base iommu.IOVA) int { return a.allocated[base] }

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
