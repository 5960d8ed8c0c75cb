package iommu

import (
	"math"

	"github.com/asplos18/damn/internal/mem"
)

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
// uint16 because AttachDevice rejects larger ids. An entry is live only
// while gen equals its device's current generation, and no generation is
// 0, so a zero entry is empty.
type tlbEntry struct {
	tag  IOVA // iova >> PageShift for 4 KiB; iova >> HugePageShift for 2 MiB
	pfn  mem.PFN
	lru  uint64
	gen  uint32
	dev  uint16
	huge bool
	perm Perm
}

// tlbDev is one device's generation and the counts of its live entries.
type tlbDev struct {
	gen  uint32
	live uint32 // live entries of the device
	huge uint32 // live 2 MiB entries among them
}

// IOTLB is a set-associative translation cache shared by all devices,
// tagged by device. Invalidation removes entries; until invalidated, a
// cached translation keeps serving DMAs even if the underlying page-table
// entry has been cleared — the property deferred protection trades on.
type IOTLB struct {
	cfg     IOTLBConfig
	entries []tlbEntry // Sets×Ways, set by set
	clock   uint64
	// devs is indexed by device id and grows at a device's first insert.
	// Retiring a device's entries bumps its generation instead of sweeping
	// the cache.
	devs []tlbDev

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

// device returns dev's generation record, or nil if dev never had an entry.
func (t *IOTLB) device(dev int) *tlbDev {
	if dev < 0 || dev >= len(t.devs) {
		return nil
	}
	return &t.devs[dev]
}

// isLive reports whether e holds a current translation.
func (t *IOTLB) isLive(e *tlbEntry) bool {
	return e.gen != 0 && e.gen == t.devs[e.dev].gen
}

// kill ends a live entry's life.
func (t *IOTLB) kill(e *tlbEntry) {
	d := &t.devs[e.dev]
	d.live--
	if e.huge {
		d.huge--
	}
	e.gen = 0
}

// find returns the live entry of dev, whose generation is gen, for tag.
func (t *IOTLB) find(dev int, gen uint32, tag IOVA, huge bool) *tlbEntry {
	set := t.set(t.setIndex(dev, tag))
	for i := range set {
		e := &set[i]
		if e.gen == gen && int(e.dev) == dev && e.huge == huge && e.tag == tag {
			return e
		}
	}
	return nil
}

// lookup returns the cached translation for the page containing iova.
// It probes the 4 KiB tag and then, if the device holds a live 2 MiB
// entry, the 2 MiB tag.
func (t *IOTLB) lookup(dev int, iova IOVA) (*tlbEntry, bool) {
	t.clock++
	if d := t.device(dev); d != nil && d.live > 0 {
		e := t.find(dev, d.gen, iova>>mem.PageShift, false)
		if e == nil && d.huge > 0 {
			e = t.find(dev, d.gen, iova>>mem.HugePageShift, true)
		}
		if e != nil {
			e.lru = t.clock
			t.Hits++
			return e, true
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
	for dev >= len(t.devs) {
		t.devs = append(t.devs, tlbDev{gen: 1})
	}
	set := t.set(t.setIndex(dev, tag))
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if !t.isLive(e) {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	if t.isLive(victim) {
		t.kill(victim) // an eviction, not an invalidation
	}
	d := &t.devs[dev]
	*victim = tlbEntry{gen: d.gen, dev: uint16(dev), tag: tag, huge: huge, pfn: pfn, perm: perm, lru: t.clock}
	d.live++
	if huge {
		d.huge++
	}
}

// InvalidateRange drops all entries of dev overlapping [iova, iova+size).
// Small ranges probe only the sets their pages index to (hardware walks the
// cache by set); huge ranges fall back to a full sweep.
func (t *IOTLB) InvalidateRange(dev int, iova IOVA, size int) {
	t.FlushCommands++
	d := t.device(dev)
	if d == nil || d.live == 0 {
		return
	}
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	if pages > 64 {
		t.invalidateRangeSweep(dev, d.gen, iova, size)
		return
	}
	// 4 KiB entries of the range.
	for p := 0; p < pages; p++ {
		tag := (iova >> mem.PageShift) + IOVA(p)
		set := t.set(t.setIndex(dev, tag))
		for i := range set {
			e := &set[i]
			if e.gen == d.gen && !e.huge && int(e.dev) == dev && e.tag == tag {
				t.kill(e)
				t.Invalidations++
			}
		}
	}
	if d.huge == 0 {
		return
	}
	// Huge entries covering any part of the range.
	firstHuge := iova >> mem.HugePageShift
	lastHuge := (iova + IOVA(size) - 1) >> mem.HugePageShift
	for tag := firstHuge; tag <= lastHuge; tag++ {
		set := t.set(t.setIndex(dev, tag))
		for i := range set {
			e := &set[i]
			if e.gen == d.gen && e.huge && int(e.dev) == dev && e.tag == tag {
				t.kill(e)
				t.Invalidations++
			}
		}
	}
}

func (t *IOTLB) invalidateRangeSweep(dev int, gen uint32, iova IOVA, size int) {
	end := iova + IOVA(size)
	for i := range t.entries {
		e := &t.entries[i]
		if e.gen != gen || int(e.dev) != dev {
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
			t.kill(e)
			t.Invalidations++
		}
	}
}

// InvalidateDevice drops every entry belonging to dev (a domain-selective
// invalidation, what deferred mode issues when its batch overflows).
func (t *IOTLB) InvalidateDevice(dev int) {
	t.FlushCommands++
	if t.device(dev) != nil {
		t.retire(dev)
	}
}

// InvalidateAll drops everything (global invalidation).
func (t *IOTLB) InvalidateAll() {
	t.FlushCommands++
	for dev := range t.devs {
		t.retire(dev)
	}
}

// retire drops every entry of dev at once: its live entries count as
// invalidated and its generation moves on, so none of them matches again.
// When the generation would wrap, entries from generations long past could
// match again, so the device's entries are cleared one by one, once per
// 2^32-1 retirements.
func (t *IOTLB) retire(dev int) {
	d := &t.devs[dev]
	t.Invalidations += uint64(d.live)
	d.live, d.huge = 0, 0
	if d.gen == math.MaxUint32 {
		for i := range t.entries {
			if e := &t.entries[i]; int(e.dev) == dev {
				e.gen = 0
			}
		}
		d.gen = 0
	}
	d.gen++
}

// HitRate returns the fraction of lookups served from the cache.
func (t *IOTLB) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}
