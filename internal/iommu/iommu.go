// Package iommu models an Intel VT-d–style I/O memory management unit: per-
// device domains with 4-level page tables mapping I/O virtual addresses
// (IOVAs) to physical addresses, an IOTLB that caches translations, and an
// invalidation queue through which the OS retires stale IOTLB entries.
//
// The security-critical behaviour reproduced here is the one every scheme in
// the paper revolves around: a DMA translates successfully if the IOTLB
// still caches the mapping, *even after the OS has removed it from the page
// tables*. Deferred invalidation therefore leaves a real, exploitable window
// (§4.1), which the attack scenarios in internal/device exercise.
package iommu

import (
	"fmt"
	"math"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/stats"
)

// IOVA is an I/O virtual address. The usable space is 48 bits, and DAMN
// partitions it by the most significant bit (§5.4/§5.5 of the paper).
type IOVA uint64

// Perm is a DMA permission bitmask.
type Perm uint8

const (
	// PermRead allows the device to read (device-to-host TX data fetch).
	PermRead Perm = 1 << iota
	// PermWrite allows the device to write (RX packet landing).
	PermWrite

	PermRW = PermRead | PermWrite
)

func (p Perm) String() string {
	switch p {
	case PermRead:
		return "r"
	case PermWrite:
		return "w"
	case PermRW:
		return "rw"
	default:
		return "-"
	}
}

// Page-table geometry (x86-64 style): 4 levels of 9 bits over 4 KiB pages.
const (
	ptLevels     = 4
	ptBits       = 9
	ptFanout     = 1 << ptBits // 512
	iovaBits     = 48
	maxIOVA      = IOVA(1)<<iovaBits - 1
	hugeLevel    = 1 // level index (from leaf) at which 2 MiB mappings sit
	hugeCoverage = mem.HugePageSize
)

// Fault records a blocked DMA.
type Fault struct {
	Dev    int
	Addr   IOVA
	Wanted Perm
	Write  bool
}

func (f Fault) Error() string {
	return fmt.Sprintf("iommu: DMA fault dev=%d iova=%#x want=%s", f.Dev, f.Addr, f.Wanted)
}

// pte is a page-table entry. Leaf entries carry the target frame and
// permission; interior entries carry children.
type pte struct {
	present  bool
	huge     bool // 2 MiB leaf at hugeLevel
	pfn      mem.PFN
	perm     Perm
	children *[ptFanout]pte
}

// Domain is one device's IOVA address space: the analogue of a VT-d domain
// with its own page-table root.
type Domain struct {
	Dev  int
	root [ptFanout]pte

	// Passthrough disables translation for this device (iommu-off):
	// IOVA == physical address and everything is permitted.
	Passthrough bool

	mappedPages int64 // currently mapped 4 KiB-equivalent pages

	// Paging-structure cache (the VT-d PDE/PDPE cache analogue): walk
	// memoizes the last leaf table (one 2 MiB window of 4 KiB ptes) and
	// the last page directory (one 1 GiB window of level-1 entries), so
	// consecutive translations within a buffer skip the radix descent.
	// Host-side only: no simulated cost or state depends on it.
	wcLeaf     *[ptFanout]pte
	wcLeafBase IOVA // 2 MiB-aligned base covered by wcLeaf
	wcDir      *[ptFanout]pte
	wcDirBase  IOVA // 1 GiB-aligned base covered by wcDir
}

// dirCoverage is the IOVA span one level-1 table (page directory) covers.
const dirCoverage = IOVA(hugeCoverage) << ptBits // 1 GiB

// invalidateWalkCache drops the paging-structure memo. Required whenever a
// table the memo may reference can be bypassed or dropped: MapHuge hides a
// leaf table behind a huge leaf, and a detached domain dies wholesale.
// Plain 4 KiB map/unmap only edits leaf ptes in place, so the memo'd
// tables stay coherent across those.
func (d *Domain) invalidateWalkCache() {
	d.wcLeaf = nil
	d.wcDir = nil
}

// IOMMU is the unit: domains plus the shared IOTLB and fault-record queue.
type IOMMU struct {
	mem *mem.Memory
	// domains is dense, indexed by device id (nil = not attached). Device
	// ids are small integers (bus/device/function analogues), so a slice
	// keeps the per-translation domain lookup a bounds check + load
	// instead of a map probe on the hottest path in the simulator.
	domains []*Domain
	tlb     *IOTLB
	invq    *InvalidationQueue
	inj     *faults.Injector

	fq FaultQueue
	// classify, when installed, maps a faulting IOVA back to the device
	// that owns it (DAMN IOVAs encode their owner). A blocked DMA whose
	// decoded owner differs from the requester is a *neighbour probe* — a
	// device reaching into another fault domain's address range — and is
	// attributed per source in the fault stats. Wired by the testbed (the
	// iova package sits above iommu, so the decoder arrives as a hook).
	classify func(dev int, v IOVA) (owner int, ok bool)
	// Stats the evaluation reads.
	Mappings     uint64 // map operations
	Unmappings   uint64 // unmap operations
	Translations uint64 // DMA page translations attempted
	BlockedDMAs  uint64
	Detaches     uint64 // domains torn down (quarantine)

	// blockedBy attributes blocked DMAs to their source device, so a fault
	// storm is attributable to one fault domain (dense, indexed by dev).
	blockedBy []uint64

	// reg receives the per-device views a device's first fault registers.
	reg *stats.Registry
}

// SetStats attaches a metrics registry to the IOMMU and its IOTLB and
// invalidation queue, so a run's translation, invalidation and fault
// activity is exported alongside every other layer. The counts the IOMMU
// keeps are views; a device's per-device fault views are registered at its
// first fault of each kind.
func (u *IOMMU) SetStats(r *stats.Registry) {
	u.reg = r
	for name, count := range map[string]*uint64{
		"mappings":             &u.Mappings,
		"unmappings":           &u.Unmappings,
		"translations":         &u.Translations,
		"blocked_dmas":         &u.BlockedDMAs,
		"domain_detaches":      &u.Detaches,
		"iotlb_hits":           &u.tlb.Hits,
		"iotlb_misses":         &u.tlb.Misses,
		"iotlb_invalidations":  &u.tlb.Invalidations,
		"iotlb_flush_commands": &u.tlb.FlushCommands,
		"fault_records":        &u.fq.Recorded,
		"fault_overflows":      &u.fq.Overflows,
		"invq_submitted":       &u.invq.Submitted,
		"invq_processed":       &u.invq.Processed,
		"ite_timeouts":         &u.invq.ITETimeouts,
	} {
		r.CounterFunc("iommu", name, func() uint64 { return *count })
	}
	u.invq.SetStats(r)
}

// countDev adds one to dev's slot of a dense per-device count, growing it
// on first sight of the device, and registers the view name_dev<dev> when
// the device is first counted there.
func (u *IOMMU) countDev(counts *[]uint64, name string, dev int) {
	if dev < 0 {
		return
	}
	for dev >= len(*counts) {
		*counts = append(*counts, 0)
	}
	(*counts)[dev]++
	if (*counts)[dev] == 1 {
		u.reg.CounterFunc("iommu", fmt.Sprintf("%s_dev%d", name, dev), func() uint64 { return (*counts)[dev] })
	}
}

// SetFaults attaches the machine's fault-injection plane: injected DMA
// translation faults (delivered through the fault-record queue) and
// invalidation-queue timeouts.
func (u *IOMMU) SetFaults(inj *faults.Injector) {
	u.inj = inj
	u.invq.inj = inj
}

// maxFrames bounds the frames a memory may have: an IOTLB entry holds its
// frame in a uint32. No machine here has more than 2 GiB (2^19 frames).
const maxFrames = 1 << 32

// New creates an IOMMU over the given physical memory, which must have
// fewer than 2^32 frames.
func New(m *mem.Memory) *IOMMU {
	if m.NumPages() >= maxFrames {
		panic(fmt.Sprintf("iommu: memory of %d frames exceeds the IOTLB's 32-bit frame numbers", m.NumPages()))
	}
	tlb := NewIOTLB(DefaultIOTLBConfig())
	return &IOMMU{
		mem:  m,
		tlb:  tlb,
		invq: NewInvalidationQueue(tlb),
	}
}

// TLB exposes the IOTLB (the DMA API charges costs for its operations and
// the evaluation reads its hit/miss counters).
func (u *IOMMU) TLB() *IOTLB { return u.tlb }

// InvQ exposes the invalidation queue through which all IOTLB
// invalidations flow (§3).
func (u *IOMMU) InvQ() *InvalidationQueue { return u.invq }

// AttachDevice creates (or returns) the domain for a device. Device ids
// must be non-negative and fit a uint16, the width IOTLB entries tag them
// with.
func (u *IOMMU) AttachDevice(dev int) *Domain {
	if dev < 0 || dev > math.MaxUint16 {
		panic(fmt.Sprintf("iommu: attach of out-of-range device id %d", dev))
	}
	for dev >= len(u.domains) {
		u.domains = append(u.domains, nil)
	}
	d := u.domains[dev]
	if d == nil {
		d = &Domain{Dev: dev}
		u.domains[dev] = d
	}
	return d
}

// DetachDevice tears down the device's domain: its page tables are dropped
// wholesale and every in-flight DMA from the device faults from this moment
// on (Translate treats a missing domain as a blocked DMA). This is the
// quarantine primitive — the VT-d analogue of clearing the device's context
// entry. The IOTLB may still hold stale entries for the old domain; the
// caller must push an InvDomain through the invalidation queue before the
// device is re-attached, or a rebuilt domain could inherit translations it
// never installed.
//
// Returns the number of pages that were still mapped (the mappings the
// reset abandons) and whether a domain existed at all.
func (u *IOMMU) DetachDevice(dev int) (abandonedPages int64, ok bool) {
	d := u.Domain(dev)
	if d == nil {
		return 0, false
	}
	d.invalidateWalkCache()
	u.domains[dev] = nil
	u.Detaches++
	return d.mappedPages, true
}

// Attached reports whether the device currently has a domain.
func (u *IOMMU) Attached(dev int) bool { return u.Domain(dev) != nil }

// Domain returns the attached domain for dev, or nil.
func (u *IOMMU) Domain(dev int) *Domain {
	if dev < 0 || dev >= len(u.domains) {
		return nil
	}
	return u.domains[dev]
}

// fits reports whether [iova, iova+size) is a non-empty range below the
// 48-bit domain width. The walk reads only bits 12–47, so a range past the
// width would alias the one 2^48 below it.
func fits(iova IOVA, size int) bool {
	return size > 0 && iova <= maxIOVA && IOVA(size-1) <= maxIOVA-iova
}

// indexAt returns the page-table index of iova at the given level
// (level 3 = root, level 0 = leaf).
func indexAt(iova IOVA, level int) int {
	return int(iova >> (mem.PageShift + uint(level)*ptBits) & (ptFanout - 1))
}

// Map installs a translation for [iova, iova+size) to the physical range
// starting at pa, with the given permission. Both iova and pa must be page
// aligned, the range must lie below the 48-bit domain width and it must
// not cross already-mapped pages; if it does, Map installs nothing.
func (u *IOMMU) Map(dev int, iova IOVA, pa mem.PhysAddr, size int, perm Perm) error {
	if iova&IOVA(mem.PageMask) != 0 || uint64(pa)&uint64(mem.PageMask) != 0 {
		return fmt.Errorf("iommu: unaligned map iova=%#x pa=%#x", iova, pa)
	}
	if !fits(iova, size) {
		return fmt.Errorf("iommu: bad map size %d at %#x", size, iova)
	}
	if perm == 0 {
		return fmt.Errorf("iommu: mapping with empty permissions")
	}
	if err := u.mem.CheckRange(pa, size); err != nil {
		return err
	}
	d := u.Domain(dev)
	if d == nil {
		return fmt.Errorf("iommu: device %d not attached", dev)
	}
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	for i := 0; i < pages; i++ {
		va := iova + IOVA(i)<<mem.PageShift
		e := d.walk(va, true)
		if e.present {
			// Take back the pages this call installed.
			for j := 0; j < i; j++ {
				*d.walk(iova+IOVA(j)<<mem.PageShift, false) = pte{}
			}
			return fmt.Errorf("iommu: iova %#x already mapped", va)
		}
		e.present = true
		e.pfn = mem.PFNOf(pa) + mem.PFN(i)
		e.perm = perm
	}
	d.mappedPages += int64(pages)
	u.Mappings++
	return nil
}

// MapHuge installs a single 2 MiB mapping. iova and pa must be 2 MiB
// aligned and iova below the 48-bit domain width. Used by the Table 3
// "huge iova pages" DAMN variant and the bypass driver's pool.
func (u *IOMMU) MapHuge(dev int, iova IOVA, pa mem.PhysAddr, perm Perm) error {
	if iova&IOVA(mem.HugePageMask) != 0 || uint64(pa)&uint64(mem.HugePageMask) != 0 {
		return fmt.Errorf("iommu: unaligned huge map iova=%#x pa=%#x", iova, pa)
	}
	if iova > maxIOVA {
		return fmt.Errorf("iommu: huge map at %#x past the domain width", iova)
	}
	if err := u.mem.CheckRange(pa, mem.HugePageSize); err != nil {
		return err
	}
	d := u.Domain(dev)
	if d == nil {
		return fmt.Errorf("iommu: device %d not attached", dev)
	}
	// A huge leaf can hide an existing (empty) leaf table behind it, which
	// the memo might still reference — drop the memo before installing.
	d.invalidateWalkCache()
	e := d.walkHuge(iova, true)
	if e.present {
		return fmt.Errorf("iommu: huge iova %#x already mapped", iova)
	}
	e.present = true
	e.huge = true
	e.pfn = mem.PFNOf(pa)
	e.perm = perm
	d.mappedPages += mem.HugePageSize / mem.PageSize
	u.Mappings++
	return nil
}

// Unmap removes translations for [iova, iova+size). The removal only takes
// full effect once the corresponding IOTLB entries are invalidated; until
// then, cached translations keep working — this is the deferred-mode
// vulnerability window. If any page of the range is not mapped by a 4 KiB
// leaf, Unmap removes nothing.
func (u *IOMMU) Unmap(dev int, iova IOVA, size int) error {
	if iova&IOVA(mem.PageMask) != 0 || !fits(iova, size) {
		return fmt.Errorf("iommu: bad unmap [%#x,+%d)", iova, size)
	}
	d := u.Domain(dev)
	if d == nil {
		return fmt.Errorf("iommu: device %d not attached", dev)
	}
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	for i := 0; i < pages; i++ {
		va := iova + IOVA(i)<<mem.PageShift
		if e := d.walk(va, false); e == nil || !e.present || e.huge {
			return fmt.Errorf("iommu: unmap of unmapped iova %#x", va)
		}
	}
	for i := 0; i < pages; i++ {
		// Clearing a leaf pte in place keeps the memo'd tables coherent;
		// no walk-cache invalidation needed here.
		*d.walk(iova+IOVA(i)<<mem.PageShift, false) = pte{}
	}
	d.mappedPages -= int64(pages)
	u.Unmappings++
	return nil
}

// UnmapHuge removes a 2 MiB mapping; iova must be 2 MiB aligned and below
// the 48-bit domain width.
func (u *IOMMU) UnmapHuge(dev int, iova IOVA) error {
	if iova&IOVA(mem.HugePageMask) != 0 || iova > maxIOVA {
		return fmt.Errorf("iommu: bad huge unmap at %#x", iova)
	}
	d := u.Domain(dev)
	if d == nil {
		return fmt.Errorf("iommu: device %d not attached", dev)
	}
	e := d.walkHuge(iova, false)
	if e == nil || !e.present || !e.huge {
		return fmt.Errorf("iommu: huge unmap of unmapped iova %#x", iova)
	}
	d.invalidateWalkCache()
	*e = pte{}
	d.mappedPages -= int64(mem.HugePageSize / mem.PageSize)
	u.Unmappings++
	return nil
}

// walk descends to the leaf pte for iova, allocating interior nodes when
// create is set. Returns nil if a level is missing and create is false.
//
// The paging-structure cache short-circuits the descent: a hit on the leaf
// memo resolves in one index, a hit on the directory memo skips the top two
// levels. Both memos are (re)warmed by full descents only, so a memoized
// leaf table is never shadowed by a huge leaf (MapHuge invalidates).
func (d *Domain) walk(iova IOVA, create bool) *pte {
	if d.wcLeaf != nil && iova&^IOVA(hugeCoverage-1) == d.wcLeafBase {
		return &d.wcLeaf[indexAt(iova, 0)]
	}
	table := &d.root
	level := ptLevels - 1
	if d.wcDir != nil && iova&^(dirCoverage-1) == d.wcDirBase {
		table = d.wcDir
		level = hugeLevel
	}
	for ; level > 0; level-- {
		e := &table[indexAt(iova, level)]
		if e.present && e.huge {
			// A huge leaf occupies this slot; 4 KiB walk stops here.
			return e
		}
		if e.children == nil {
			if !create {
				return nil
			}
			e.children = new([ptFanout]pte)
		}
		if level == hugeLevel+1 {
			d.wcDir = e.children
			d.wcDirBase = iova &^ (dirCoverage - 1)
		}
		table = e.children
	}
	d.wcLeaf = table
	d.wcLeafBase = iova &^ IOVA(hugeCoverage-1)
	return &table[indexAt(iova, 0)]
}

// walkHuge descends to the level-1 slot that would hold a 2 MiB leaf.
func (d *Domain) walkHuge(iova IOVA, create bool) *pte {
	if d.wcDir != nil && iova&^(dirCoverage-1) == d.wcDirBase {
		return &d.wcDir[indexAt(iova, hugeLevel)]
	}
	table := &d.root
	for level := ptLevels - 1; level > hugeLevel; level-- {
		e := &table[indexAt(iova, level)]
		if e.children == nil {
			if !create {
				return nil
			}
			e.children = new([ptFanout]pte)
		}
		if level == hugeLevel+1 {
			d.wcDir = e.children
			d.wcDirBase = iova &^ (dirCoverage - 1)
		}
		table = e.children
	}
	return &table[indexAt(iova, hugeLevel)]
}

// MappedPages returns the number of currently mapped 4 KiB pages in the
// device's domain.
func (u *IOMMU) MappedPages(dev int) int64 {
	if d := u.Domain(dev); d != nil {
		return d.mappedPages
	}
	return 0
}
