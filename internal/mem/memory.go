package mem

import (
	"errors"
	"fmt"

	"github.com/asplos18/damn/internal/faults"
)

// ErrNoMemory reports page-allocator exhaustion after reclaim has run.
// Callers match it with errors.Is: it is the one allocation failure that is
// a state of the machine rather than a caller bug, and every layer above
// (slab, DAMN, netstack) must degrade rather than panic on it.
var ErrNoMemory = errors.New("mem: out of memory")

// Memory is the simulated physical memory of one machine: a flat byte array
// with its zero map, plus the page structs and per-NUMA-node buddy zones.
// Like every component of a machine, it is driven by one goroutine.
type Memory struct {
	data []byte
	// sections holds the page structs, one section per MaxOrder block,
	// each built on the first PageOf into it (see PageOf).
	sections []*section
	npages   int
	perNode  int // frames per NUMA node; the last node takes the remainder
	zones    []*Zone

	// dirty is the zero map: a clear bit means the frame is all zero
	// (see zeroMap). It has no simulated meaning.
	dirty zeroMap

	// Counters for the evaluation harness (Fig 9 / Fig 10).
	allocatedPages int64
	zeroedBytes    int64

	// Memory-pressure reclaim (§5.4's shrinker interface).
	shrinkers      []ShrinkFunc
	reclaimRuns    int64
	reclaimedPages int64

	inj *faults.Injector
}

// SetFaults attaches the machine's fault-injection plane. An injected
// AllocFail behaves exactly like true exhaustion: reclaim runs (shrinkers
// give pages back), then the allocation fails with ErrNoMemory.
func (m *Memory) SetFaults(inj *faults.Injector) { m.inj = inj }

// Config describes the machine memory layout.
type Config struct {
	// TotalBytes of simulated RAM. Rounded down to a page multiple.
	TotalBytes int64
	// NUMANodes is the number of memory nodes; frames are split evenly
	// into contiguous per-node ranges, matching a dual-socket server.
	NUMANodes int
}

// New constructs a Memory. Frame 0 is reserved (a NULL physical address is
// never handed out), as on real hardware where low memory is firmware-owned.
func New(cfg Config) (*Memory, error) {
	if cfg.NUMANodes <= 0 {
		cfg.NUMANodes = 1
	}
	nPages := int(cfg.TotalBytes >> PageShift)
	if nPages < cfg.NUMANodes*2 {
		return nil, fmt.Errorf("mem: %d bytes is too small for %d NUMA nodes", cfg.TotalBytes, cfg.NUMANodes)
	}
	data, dirty := takeBacking(nPages << PageShift)
	perNode := nPages / cfg.NUMANodes
	m := &Memory{
		data:     data,
		dirty:    dirty,
		sections: make([]*section, (nPages+sectionPages-1)>>sectionShift),
		npages:   nPages,
		perNode:  perNode,
		zones:    make([]*Zone, cfg.NUMANodes),
	}
	// Reserve frame 0.
	m.PageOf(0).SetFlags(FlagReserved)
	for n := 0; n < cfg.NUMANodes; n++ {
		start := PFN(n * perNode)
		end := PFN((n + 1) * perNode)
		if n == cfg.NUMANodes-1 {
			end = PFN(nPages)
		}
		if n == 0 {
			start = 1 // skip reserved frame 0
		}
		m.zones[n] = newZone(m, n, start, end)
	}
	return m, nil
}

// NumPages returns the number of physical frames.
func (m *Memory) NumPages() int { return m.npages }

// NumNodes returns the number of NUMA nodes.
func (m *Memory) NumNodes() int { return len(m.zones) }

// A section is the page structs of one MaxOrder block: 1,024 frames, 4 MiB
// of RAM. A buddy block never crosses a section, so code that walks a
// block's page structs indexes one section (see block).
type section [sectionPages]Page

const (
	sectionShift = MaxOrder
	sectionPages = 1 << sectionShift
	sectionMask  = sectionPages - 1
)

// PageOf returns the page struct for a frame number. A machine touches a
// few of its sections, so each is built, its frames numbered and given
// their node, on the first PageOf into it.
func (m *Memory) PageOf(pfn PFN) *Page {
	if uint64(pfn) >= uint64(m.npages) {
		panic(fmt.Sprintf("mem: pfn %d is past the end of RAM (%d frames)", pfn, m.npages))
	}
	s := m.sections[pfn>>sectionShift]
	if s == nil {
		s = m.buildSection(pfn >> sectionShift)
	}
	return &s[pfn&sectionMask]
}

// buildSection builds section i and stores it.
func (m *Memory) buildSection(i PFN) *section {
	s := new(section)
	base := i << sectionShift
	for j := range s {
		pfn := base + PFN(j)
		s[j].pfn = pfn
		s[j].Node = min(int(pfn)/m.perNode, len(m.zones)-1)
	}
	m.sections[i] = s
	return s
}

// block returns the page structs of the 2^order block headed by head,
// which PageOf has built.
func (m *Memory) block(head *Page, order int) []Page {
	i := head.pfn & sectionMask
	return m.sections[head.pfn>>sectionShift][i : i+1<<order]
}

// PageOfAddr returns the page struct covering a physical address.
func (m *Memory) PageOfAddr(pa PhysAddr) *Page { return m.PageOf(PFNOf(pa)) }

// CheckRange validates that [pa, pa+n) lies inside simulated RAM. The
// comparison never forms pa+n, which wraps for a range that a device
// places at the top of the 64-bit address space.
func (m *Memory) CheckRange(pa PhysAddr, n int) error {
	size := uint64(len(m.data))
	if n < 0 || uint64(pa) > size || uint64(n) > size-uint64(pa) {
		return fmt.Errorf("mem: physical range [%#x,+%d) out of bounds (RAM is %d bytes)", pa, n, len(m.data))
	}
	return nil
}

// Bytes returns the live byte slice backing [pa, pa+n). Callers are kernel
// code or post-IOMMU device accesses; bounds are enforced. Bytes marks the
// covered frames in the zero map, since the caller may write through the
// slice — but only until the next Zero, Copy or Release of those frames:
// Zero and Copy may record a frame as all zero, and a write behind that
// record is lost to both. Code that only reads should use Read.
func (m *Memory) Bytes(pa PhysAddr, n int) []byte {
	b := m.span(pa, n)
	if n > 0 {
		m.dirty.mark(uint64(pa)>>PageShift, (uint64(pa)+uint64(n)-1)>>PageShift)
	}
	return b
}

// span returns the backing bytes of [pa, pa+n) without touching the zero
// map, panicking when the range is out of bounds.
func (m *Memory) span(pa PhysAddr, n int) []byte {
	if err := m.CheckRange(pa, n); err != nil {
		panic(err)
	}
	return m.data[pa:PhysAddr(uint64(pa)+uint64(n))]
}

// Read copies n bytes at pa into dst and returns the count.
func (m *Memory) Read(pa PhysAddr, dst []byte) int {
	return copy(dst, m.span(pa, len(dst)))
}

// Write copies src into memory at pa and returns the count.
func (m *Memory) Write(pa PhysAddr, src []byte) int {
	return copy(m.Bytes(pa, len(src)), src)
}

// Zero clears [pa, pa+n). DAMN zeroes every chunk it takes from the page
// allocator (§5.6 TX security argument), and the counter lets tests assert
// that it really happened. The counter takes all n bytes; the host clears
// only frames the zero map has marked, and unmarks those it fully covers.
func (m *Memory) Zero(pa PhysAddr, n int) {
	b := m.span(pa, n)
	for off := 0; off < n; {
		a := uint64(pa) + uint64(off)
		k := min(n-off, PageSize-int(a&PageMask))
		if f := a >> PageShift; m.dirty.has(f) {
			clear(b[off : off+k])
			if k == PageSize {
				m.dirty.unmark(f)
			}
		}
		off += k
	}
	m.zeroedBytes += int64(n)
}

// Copy copies n bytes from src to dst, with memmove semantics. Callers
// charge the simulated copy for all n bytes; the host works frame by frame
// and moves only what the zero map cannot vouch for: it skips spans whose
// source and destination are both zero, clears the destination where only
// the source is zero (unmarking a destination frame it fully covers), and
// copies and marks otherwise.
func (m *Memory) Copy(dst, src PhysAddr, n int) {
	d, s := m.span(dst, n), m.span(src, n)
	if n == 0 {
		return
	}
	if dst < src+PhysAddr(n) && src < dst+PhysAddr(n) {
		// Overlapping ranges: one memmove over the whole span.
		m.Bytes(dst, n)
		copy(d, s)
		return
	}
	for off := 0; off < n; {
		sa, da := uint64(src)+uint64(off), uint64(dst)+uint64(off)
		k := min(n-off, PageSize-int(sa&PageMask), PageSize-int(da&PageMask))
		sf, df := sa>>PageShift, da>>PageShift
		switch {
		case m.dirty.has(sf):
			m.dirty.mark(df, df)
			copy(d[off:off+k], s[off:off+k])
		case m.dirty.has(df):
			clear(d[off : off+k])
			if k == PageSize {
				m.dirty.unmark(df)
			}
		}
		off += k
	}
}

// ZeroedBytes reports the cumulative number of bytes zeroed.
func (m *Memory) ZeroedBytes() int64 { return m.zeroedBytes }

// AllocatedPages reports the number of pages currently held by callers.
func (m *Memory) AllocatedPages() int64 { return m.allocatedPages }

// AllocPages allocates 2^order physically contiguous frames on the given
// NUMA node (falling back to other nodes if the preferred one is exhausted)
// and returns the head page struct. The block is returned as a compound
// page when order > 0, mirroring __GFP_COMP which network buffer
// allocations use and which DAMN's metadata scheme (§5.5) depends on.
func (m *Memory) AllocPages(order int, node int) (*Page, error) {
	if order < 0 || order > MaxOrder {
		return nil, fmt.Errorf("mem: bad order %d", order)
	}
	if node < 0 || node >= len(m.zones) {
		node = 0
	}
	if m.inj.Should(faults.AllocFail) {
		m.reclaim()
		return nil, fmt.Errorf("%w: injected failure allocating order-%d block on node %d",
			ErrNoMemory, order, node)
	}
	for round := 0; round < 2; round++ {
		for attempt := 0; attempt < len(m.zones); attempt++ {
			z := m.zones[(node+attempt)%len(m.zones)]
			if pfn, ok := z.alloc(order); ok {
				m.allocatedPages += 1 << order
				head := m.PageOf(pfn)
				m.makeCompound(head, order)
				return head, nil
			}
		}
		// Memory pressure: ask the registered caches (DAMN's DMA
		// caches among them) to give pages back, then retry once.
		if round == 0 && m.reclaim() == 0 {
			break
		}
	}
	return nil, fmt.Errorf("%w allocating order-%d block on node %d", ErrNoMemory, order, node)
}

// FreePages returns a block previously obtained from AllocPages.
func (m *Memory) FreePages(head *Page, order int) {
	if head.Has(FlagBuddy) {
		panic(fmt.Sprintf("mem: double free of pfn %d", head.pfn))
	}
	m.breakCompound(head, order)
	m.allocatedPages -= 1 << order
	m.zones[head.Node].free(head.pfn, order)
}

// makeCompound links 2^order pages into a compound: head gets FlagHead and
// the order; tails get FlagTail and a pointer to the head.
func (m *Memory) makeCompound(head *Page, order int) {
	head.Order = uint8(order)
	head.SetRefCount(1)
	if order == 0 {
		return
	}
	head.SetFlags(FlagHead)
	b := m.block(head, order)
	for i := 1; i < len(b); i++ {
		t := &b[i]
		t.SetFlags(FlagTail)
		t.HeadPFN = head.pfn
		t.Private = 0
	}
}

// breakCompound dissolves the compound linkage before the block re-enters
// the buddy system.
func (m *Memory) breakCompound(head *Page, order int) {
	head.ClearFlags(FlagHead)
	head.Order = 0
	head.SetRefCount(0)
	b := m.block(head, order)
	for i := 1; i < len(b); i++ {
		t := &b[i]
		t.ClearFlags(FlagTail | FlagDAMN)
		t.HeadPFN = 0
		t.Private = 0
	}
}

// SplitCompound re-forms one order-`order` compound block into
// 2^(order-sub) independent compounds of order sub, returning their heads.
// The caller must own the block. Used by DAMN's dense-huge-IOVA variant to
// carve a 2 MiB superblock into 64 KiB chunks that each keep their own
// head-page refcount and tail-page metadata.
func (m *Memory) SplitCompound(head *Page, order, sub int) []*Page {
	if sub > order {
		panic(fmt.Sprintf("mem: cannot split order %d into order %d", order, sub))
	}
	m.breakCompound(head, order)
	b := m.block(head, order)
	heads := make([]*Page, 0, 1<<(order-sub))
	for i := 0; i < len(b); i += 1 << sub {
		h := &b[i]
		m.makeCompound(h, sub)
		heads = append(heads, h)
	}
	return heads
}

// Head resolves a page to its compound head (itself if not a tail).
func (m *Memory) Head(p *Page) *Page {
	if p.IsCompoundTail() {
		return m.PageOf(p.HeadPFN)
	}
	return p
}

// TotalFreePages reports free frames across all nodes.
func (m *Memory) TotalFreePages() int64 {
	var n int64
	for _, z := range m.zones {
		n += z.nfree
	}
	return n
}
