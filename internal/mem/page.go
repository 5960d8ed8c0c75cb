// Package mem implements the simulated physical memory substrate that the
// rest of the reproduction runs on: a flat byte-addressable "RAM", page
// structs (the analogue of Linux's struct page), a NUMA-zoned buddy page
// allocator, compound pages, and a small kmalloc-style slab allocator.
//
// Everything above this package — the IOMMU, the DMA API, DAMN itself, the
// device models — addresses memory through mem.PhysAddr values and reads or
// writes bytes through Memory accessors, exactly as hardware and kernel code
// address physical memory. Nothing in the repository holds raw Go pointers
// into DMA-visible memory; all device access is by simulated physical
// address, so IOMMU enforcement is airtight within the simulation.
//
// The bytes live in a Go array, and a host-side zero map records which
// 4 KiB frames are known to be all zero so that Memory.Zero, Memory.Copy and
// the recycling of backing arrays skip them. The map never changes a
// simulated result; its one rule for callers is that a slice returned by
// Memory.Bytes may be written only until the next Zero, Copy or Release of
// its frames.
package mem

import "fmt"

// Page geometry. These mirror x86-64: 4 KiB base pages and 2 MiB huge pages
// (used by the IOMMU for "huge IOVA page" mappings, Table 3 of the paper).
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1

	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift // 2 MiB
	HugePageMask  = HugePageSize - 1
)

// PhysAddr is a simulated physical address.
type PhysAddr uint64

// PFN is a physical frame number: PhysAddr >> PageShift.
type PFN uint64

// Addr returns the physical address of the first byte of the frame.
func (p PFN) Addr() PhysAddr { return PhysAddr(p) << PageShift }

// PFNOf returns the frame number containing the physical address.
func PFNOf(pa PhysAddr) PFN { return PFN(pa >> PageShift) }

// PageFlags is the per-page flag word, the analogue of struct page flags.
type PageFlags uint32

const (
	// FlagHead marks the head page of a compound (multi-page) allocation.
	FlagHead PageFlags = 1 << iota
	// FlagTail marks a non-head page of a compound allocation.
	FlagTail
	// FlagDAMN is DAMN's flag F (§5.5 of the paper): set on the *third*
	// page struct of a DAMN chunk to identify the compound as
	// DAMN-managed without enlarging struct page.
	FlagDAMN
	// FlagReserved marks frames that are not available to the allocator
	// (simulated firmware holes, the zero frame).
	FlagReserved
	// FlagSlab marks pages owned by the kmalloc slab allocator.
	FlagSlab
	// FlagBuddy marks a free page currently held in a buddy free list; it
	// exists to catch double frees.
	FlagBuddy
)

// Page is the simulated struct page. One exists for every physical frame;
// Memory builds them a section at a time, on first use (see PageOf).
// As in Linux, several fields are unions in spirit: Private carries the
// free-list link for free buddy pages, the slab record index + 1 for slab
// pages, and DAMN metadata (the chunk IOVA, the owning DMA-cache handle) on tail pages
// of DAMN chunks — storing that metadata in otherwise-unused tail page
// structs is precisely the trick §5.5 of the paper describes.
type Page struct {
	flags    PageFlags
	refcount int32

	// Order is valid on a compound head: log2 of the number of pages.
	Order uint8

	// HeadPFN is valid on tail pages: the PFN of the compound head.
	HeadPFN PFN

	// Private is general-purpose per-page metadata storage (see above).
	Private uint64

	// NUMA node this frame belongs to. Fixed at Memory construction.
	Node int

	pfn PFN
}

// PFN returns the frame number this page struct describes.
func (p *Page) PFN() PFN { return p.pfn }

// SetFlags sets the given flag bits.
func (p *Page) SetFlags(bits PageFlags) { p.flags |= bits }

// ClearFlags clears the given flag bits.
func (p *Page) ClearFlags(bits PageFlags) { p.flags &^= bits }

// Has reports whether all the given flag bits are set.
func (p *Page) Has(bits PageFlags) bool { return p.flags&bits == bits }

// Get increments the page reference count and returns the new value.
// This is the interface DAMN's chunk refcounting uses (§5.4: "using the
// existing OS page reference-count interface").
func (p *Page) Get() int32 {
	p.refcount++
	return p.refcount
}

// Put decrements the page reference count and returns the new value.
func (p *Page) Put() int32 {
	p.refcount--
	if p.refcount < 0 {
		panic(fmt.Sprintf("mem: refcount of pfn %d went negative", p.pfn))
	}
	return p.refcount
}

// RefCount returns the current reference count.
func (p *Page) RefCount() int32 { return p.refcount }

// SetRefCount forces the reference count; used when (re)initialising a
// freshly allocated block.
func (p *Page) SetRefCount(n int32) { p.refcount = n }

// IsCompoundHead reports whether this page heads a compound allocation.
func (p *Page) IsCompoundHead() bool { return p.Has(FlagHead) }

// IsCompoundTail reports whether this page is a compound tail.
func (p *Page) IsCompoundTail() bool { return p.Has(FlagTail) }
