package iommu

import "github.com/asplos18/damn/internal/mem"

// IOTLBConfig sizes the translation cache. The defaults approximate the
// IOTLB of a server-class VT-d implementation; what matters for the
// reproduction is that the cache is finite, so scattered IOVA usage (DAMN's
// metadata-encoded IOVAs, Table 3) misses more than dense usage.
type IOTLBConfig struct {
	Sets int // must be a power of two
	Ways int
}

// DefaultIOTLBConfig returns a 4096-set, 4-way cache (16384 entries),
// approximating the combined reach of the IOTLB and the paging-structure
// caches of a server-class IOMMU.
func DefaultIOTLBConfig() IOTLBConfig { return IOTLBConfig{Sets: 4096, Ways: 4} }

// tlbEntry is 32 bytes, ordered widest field first so none pads; dev fits
// int32 because AttachDevice rejects larger ids.
type tlbEntry struct {
	tag   IOVA // iova >> PageShift for 4 KiB; iova >> HugePageShift for 2 MiB
	pfn   mem.PFN
	lru   uint64
	dev   int32
	valid bool
	huge  bool
	perm  Perm
}

// IOTLB is a set-associative translation cache shared by all devices,
// tagged by device. Invalidation removes entries; until invalidated, a
// cached translation keeps serving DMAs even if the underlying page-table
// entry has been cleared — the property deferred protection trades on.
type IOTLB struct {
	cfg     IOTLBConfig
	entries []tlbEntry // Sets×Ways, set by set
	clock   uint64

	Hits          uint64
	Misses        uint64
	Invalidations uint64 // individual entries dropped
	FlushCommands uint64 // invalidation commands processed
}

// NewIOTLB builds an empty cache.
func NewIOTLB(cfg IOTLBConfig) *IOTLB {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 {
		panic("iommu: IOTLB sets must be a positive power of two and ways positive")
	}
	return &IOTLB{cfg: cfg, entries: make([]tlbEntry, cfg.Sets*cfg.Ways)}
}

// set returns the ways of set i, in way order.
func (t *IOTLB) set(i int) []tlbEntry {
	return t.entries[i*t.cfg.Ways : (i+1)*t.cfg.Ways]
}

// setIndex uses the low bits of the page tag, as hardware TLBs do. This is
// what makes DAMN's metadata-encoded IOVAs IOTLB-hostile (Table 3): chunks
// from different per-(cpu,rights,dev) regions share their low offset bits,
// so they collide in the same sets, while a dense IOVA range spreads evenly.
func (t *IOTLB) setIndex(dev int, tag IOVA) int {
	return (int(tag) ^ dev*7) & (t.cfg.Sets - 1)
}

// lookup returns the cached translation for the page containing iova.
// It probes the 4 KiB tag and then the 2 MiB tag.
func (t *IOTLB) lookup(dev int, iova IOVA) (*tlbEntry, bool) {
	t.clock++
	smallTag := iova >> mem.PageShift
	hugeTag := iova >> mem.HugePageShift
	for _, probe := range []struct {
		tag  IOVA
		huge bool
	}{{smallTag, false}, {hugeTag, true}} {
		set := t.set(t.setIndex(dev, probe.tag))
		for i := range set {
			e := &set[i]
			if e.valid && int(e.dev) == dev && e.huge == probe.huge && e.tag == probe.tag {
				e.lru = t.clock
				t.Hits++
				return e, true
			}
		}
	}
	t.Misses++
	return nil, false
}

// insert fills the cache after a page-table walk.
func (t *IOTLB) insert(dev int, iova IOVA, huge bool, pfn mem.PFN, perm Perm) {
	t.clock++
	var tag IOVA
	if huge {
		tag = iova >> mem.HugePageShift
	} else {
		tag = iova >> mem.PageShift
	}
	set := t.set(t.setIndex(dev, tag))
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = tlbEntry{valid: true, dev: int32(dev), tag: tag, huge: huge, pfn: pfn, perm: perm, lru: t.clock}
}

// InvalidateRange drops all entries of dev overlapping [iova, iova+size).
// Small ranges probe only the sets their pages index to (hardware walks the
// cache by set); huge ranges fall back to a full sweep.
func (t *IOTLB) InvalidateRange(dev int, iova IOVA, size int) {
	t.FlushCommands++
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	if pages > 64 {
		t.invalidateRangeSweep(dev, iova, size)
		return
	}
	// 4 KiB entries of the range.
	for p := 0; p < pages; p++ {
		tag := (iova >> mem.PageShift) + IOVA(p)
		set := t.set(t.setIndex(dev, tag))
		for i := range set {
			e := &set[i]
			if e.valid && !e.huge && int(e.dev) == dev && e.tag == tag {
				e.valid = false
				t.Invalidations++
			}
		}
	}
	// Huge entries covering any part of the range.
	firstHuge := iova >> mem.HugePageShift
	lastHuge := (iova + IOVA(size) - 1) >> mem.HugePageShift
	for tag := firstHuge; tag <= lastHuge; tag++ {
		set := t.set(t.setIndex(dev, tag))
		for i := range set {
			e := &set[i]
			if e.valid && e.huge && int(e.dev) == dev && e.tag == tag {
				e.valid = false
				t.Invalidations++
			}
		}
	}
}

func (t *IOTLB) invalidateRangeSweep(dev int, iova IOVA, size int) {
	end := iova + IOVA(size)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid || int(e.dev) != dev {
			continue
		}
		var lo, hi IOVA
		if e.huge {
			lo = e.tag << mem.HugePageShift
			hi = lo + IOVA(mem.HugePageSize)
		} else {
			lo = e.tag << mem.PageShift
			hi = lo + IOVA(mem.PageSize)
		}
		if lo < end && iova < hi {
			e.valid = false
			t.Invalidations++
		}
	}
}

// InvalidateDevice drops every entry belonging to dev (a domain-selective
// invalidation, what deferred mode issues when its batch overflows).
func (t *IOTLB) InvalidateDevice(dev int) {
	t.FlushCommands++
	// A local slice header: the count writes through t, so t.entries
	// would be reloaded and bounds-checked for every entry.
	es := t.entries
	for i := range es {
		e := &es[i]
		if e.valid && int(e.dev) == dev {
			e.valid = false
			t.Invalidations++
		}
	}
}

// InvalidateAll drops everything (global invalidation).
func (t *IOTLB) InvalidateAll() {
	t.FlushCommands++
	for i := range t.entries {
		if e := &t.entries[i]; e.valid {
			e.valid = false
			t.Invalidations++
		}
	}
}

// HitRate returns the fraction of lookups served from the cache.
func (t *IOTLB) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}
