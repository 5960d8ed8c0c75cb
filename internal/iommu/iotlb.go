package iommu

import (
	"math"

	"github.com/asplos18/damn/internal/mem"
)

// IOTLBConfig sizes the translation cache. The defaults approximate the
// IOTLB of a server-class VT-d implementation; what matters for the
// reproduction is that the cache is finite, so scattered IOVA usage (DAMN's
// metadata-encoded IOVAs, Table 3) misses more than dense usage. Every set
// has tlbWays ways.
type IOTLBConfig struct {
	Sets int // must be a power of two
}

// DefaultIOTLBConfig returns a 4096-set cache (16384 entries in 256 KiB),
// approximating the combined reach of the IOTLB and the paging-structure
// caches of a server-class IOMMU.
func DefaultIOTLBConfig() IOTLBConfig { return IOTLBConfig{Sets: 4096} }

// tlbWays is the associativity: four ways fill one 64-byte set.
const tlbWays = 4

// tlbSet is one set of the cache in 64 bytes, so a probe reads one cache
// line. Way w is keys[w], pfns[w] and gens[w]. An entry is live only while
// its generation equals its device's current one, and no generation is 0,
// so a zeroed set is empty. A frame fits uint32 because New rejects a
// memory of 2^32 frames or more.
type tlbSet struct {
	keys [tlbWays]uint64
	pfns [tlbWays]uint32
	gens [tlbWays]uint16
	// order ranks the ways by their last fill or hit: the bit of each
	// pair of ways i < j (see newer) is 1 if way i was used after way j.
	// Every fill or hit sets its way's pairs, so the bits always form
	// one total order; a zeroed set ranks way 3 as the most recent and
	// way 0 as the least. A way goes live only by a fill, which makes it
	// the most recent, so four live ways rank in the order a clock
	// stamped on every fill and hit would give them.
	order uint8
}

// The six pairs of ways i < j own one bit of tlbSet.order each: (0,1),
// (0,2) and (0,3) bits 0–2, (1,2) and (1,3) bits 3–4, (2,3) bit 5.
// newer[w] holds the bits of w's pairs with a later way, which a use of w
// sets; older[w] those of its pairs with an earlier way, which it clears.
var (
	newer = [tlbWays]uint8{0b000111, 0b011000, 0b100000, 0}
	older = [tlbWays]uint8{0, 0b000001, 0b001010, 0b110100}
)

// A key packs tag<<keyTagShift | dev<<keyDevShift | huge<<2 | perm. The tag
// is the IOVA's 4 KiB page number, or its 2 MiB one for a huge entry; a
// translation faults every IOVA past the 48-bit domain width, so a tag
// fits 36 bits. The device id fits the 16 bits AttachDevice allows.
const (
	keyPerm     = uint64(PermRW)
	keyHuge     = 1 << 2
	keyDevShift = 3
	keyTagShift = keyDevShift + 16
)

// tlbKey returns the key a probe compares, permission bits clear.
func tlbKey(dev int, tag IOVA, huge bool) uint64 {
	k := uint64(tag)<<keyTagShift | uint64(dev)<<keyDevShift
	if huge {
		k |= keyHuge
	}
	return k
}

func keyDev(k uint64) int { return int(k >> keyDevShift & math.MaxUint16) }

// tlbDev is one device's generation and the counts of its live entries.
type tlbDev struct {
	live uint32 // live entries of the device
	huge uint32 // live 2 MiB entries among them
	gen  uint16
}

// IOTLB is a set-associative translation cache shared by all devices,
// tagged by device. Invalidation removes entries; until invalidated, a
// cached translation keeps serving DMAs even if the underlying page-table
// entry has been cleared — the property deferred protection trades on.
type IOTLB struct {
	sets []tlbSet
	mask int // len(sets) - 1
	// devs is indexed by device id and grows when a device first
	// translates. Retiring a device's entries bumps its generation instead
	// of sweeping the cache.
	devs []tlbDev

	Hits          uint64
	Misses        uint64
	Invalidations uint64 // individual entries dropped
	FlushCommands uint64 // invalidation commands processed
}

// NewIOTLB builds an empty cache.
func NewIOTLB(cfg IOTLBConfig) *IOTLB {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("iommu: IOTLB sets must be a positive power of two")
	}
	return &IOTLB{sets: make([]tlbSet, cfg.Sets), mask: cfg.Sets - 1}
}

// setIndex uses the low bits of the page tag, as hardware TLBs do. This is
// what makes DAMN's metadata-encoded IOVAs IOTLB-hostile (Table 3): chunks
// from different per-(cpu,rights,dev) regions share their low offset bits,
// so they collide in the same sets, while a dense IOVA range spreads evenly.
func (t *IOTLB) setIndex(dev int, tag IOVA) int {
	return (int(tag) ^ dev*7) & t.mask
}

// record returns dev's generation record, or nil if dev never translated.
func (t *IOTLB) record(dev int) *tlbDev {
	if dev < 0 || dev >= len(t.devs) {
		return nil
	}
	return &t.devs[dev]
}

// grow returns dev's generation record, creating it at generation 1.
func (t *IOTLB) grow(dev int) *tlbDev {
	for dev >= len(t.devs) {
		t.devs = append(t.devs, tlbDev{gen: 1})
	}
	return &t.devs[dev]
}

// live reports whether way w of s holds a current translation.
func (t *IOTLB) live(s *tlbSet, w int) bool {
	g := s.gens[w]
	return g != 0 && g == t.devs[keyDev(s.keys[w])].gen
}

// kill ends a live entry's life.
func (t *IOTLB) kill(s *tlbSet, w int) {
	d := &t.devs[keyDev(s.keys[w])]
	d.live--
	if s.keys[w]&keyHuge != 0 {
		d.huge--
	}
	s.gens[w] = 0
}

// touch makes way w the most recently used.
func (s *tlbSet) touch(w int) {
	s.order = s.order&^older[w&(tlbWays-1)] | newer[w&(tlbWays-1)]
}

// lru returns the least recently used way: the one every other way was
// used after.
func (s *tlbSet) lru() int {
	w := 0
	for s.order&(newer[w]|older[w]) != older[w] {
		w++
	}
	return w
}

// victim returns the way a fill of s takes: the first dead way in way
// order, otherwise the least recently used.
func (t *IOTLB) victim(s *tlbSet) int {
	for w := range tlbWays {
		if !t.live(s, w) {
			return w
		}
	}
	return s.lru()
}

// find returns the way of s whose live entry has key (permission bits
// clear) at generation gen, or -1.
func (s *tlbSet) find(key uint64, gen uint16) int {
	for w := range tlbWays {
		if s.gens[w] == gen && s.keys[w]&^keyPerm == key {
			return w
		}
	}
	return -1
}

// fill installs a translation of device record d in way w of s, evicting
// the live entry there (an eviction, not an invalidation), and makes it
// the most recently used. key carries the permission.
func (t *IOTLB) fill(s *tlbSet, w int, d *tlbDev, key uint64, pfn mem.PFN) {
	if t.live(s, w) {
		t.kill(s, w)
	}
	s.keys[w] = key
	s.pfns[w] = uint32(pfn)
	s.gens[w] = d.gen
	s.touch(w)
	d.live++
	if key&keyHuge != 0 {
		d.huge++
	}
}

// insert fills the cache for the page containing iova and returns the set
// and way it took: a 2 MiB entry, whose set differs from the 4 KiB one the
// page loop probed first.
func (t *IOTLB) insert(dev int, iova IOVA, huge bool, pfn mem.PFN, perm Perm) (*tlbSet, int) {
	tag := iova >> mem.PageShift
	if huge {
		tag = iova >> mem.HugePageShift
	}
	s := &t.sets[t.setIndex(dev, tag)]
	w := t.victim(s)
	t.fill(s, w, t.grow(dev), tlbKey(dev, tag, huge)|uint64(perm), pfn)
	return s, w
}

// addr returns where way w of s translates iova to.
func (s *tlbSet) addr(w int, iova IOVA) mem.PhysAddr {
	off := iova & IOVA(mem.PageMask)
	if s.keys[w]&keyHuge != 0 {
		off = iova & IOVA(mem.HugePageMask)
	}
	return mem.PFN(s.pfns[w]).Addr() + mem.PhysAddr(off)
}

// InvalidateRange drops all entries of dev overlapping [iova, iova+size).
// Small ranges probe only the sets their pages index to (hardware walks the
// cache by set); huge ranges fall back to a full sweep. No entry lies past
// the domain width, so a range starting there drops nothing.
func (t *IOTLB) InvalidateRange(dev int, iova IOVA, size int) {
	t.FlushCommands++
	d := t.record(dev)
	if d == nil || d.live == 0 || iova > maxIOVA {
		return
	}
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	if pages > 64 {
		t.invalidateRangeSweep(dev, d.gen, iova, size)
		return
	}
	// 4 KiB entries of the range.
	for p := 0; p < pages; p++ {
		t.invalidateTag(dev, d.gen, iova>>mem.PageShift+IOVA(p), false)
	}
	if d.huge == 0 {
		return
	}
	// Huge entries covering any part of the range.
	firstHuge := iova >> mem.HugePageShift
	lastHuge := (iova + IOVA(size) - 1) >> mem.HugePageShift
	for tag := firstHuge; tag <= lastHuge; tag++ {
		t.invalidateTag(dev, d.gen, tag, true)
	}
}

// invalidateTag drops dev's live entry for tag, if its set holds one.
func (t *IOTLB) invalidateTag(dev int, gen uint16, tag IOVA, huge bool) {
	s := &t.sets[t.setIndex(dev, tag)]
	key := tlbKey(dev, tag, huge)
	for w := range tlbWays {
		if s.gens[w] == gen && s.keys[w]&^keyPerm == key {
			t.kill(s, w)
			t.Invalidations++
		}
	}
}

func (t *IOTLB) invalidateRangeSweep(dev int, gen uint16, iova IOVA, size int) {
	end := iova + IOVA(size)
	for i := range t.sets {
		s := &t.sets[i]
		for w := range tlbWays {
			k := s.keys[w]
			if s.gens[w] != gen || keyDev(k) != dev {
				continue
			}
			shift := uint(mem.PageShift)
			if k&keyHuge != 0 {
				shift = mem.HugePageShift
			}
			lo := IOVA(k>>keyTagShift) << shift
			hi := lo + IOVA(1)<<shift
			if lo < end && iova < hi {
				t.kill(s, w)
				t.Invalidations++
			}
		}
	}
}

// InvalidateDevice drops every entry belonging to dev (a domain-selective
// invalidation, what deferred mode issues when its batch overflows).
func (t *IOTLB) InvalidateDevice(dev int) {
	t.FlushCommands++
	if t.record(dev) != nil {
		t.retire(dev)
	}
}

// retire drops every entry of dev at once: its live entries count as
// invalidated and its generation moves on, so none of them matches again.
// When the generation would wrap, entries from generations long past could
// match again, so the device's entries are cleared one by one, once per
// 2^16-1 retirements.
func (t *IOTLB) retire(dev int) {
	d := &t.devs[dev]
	t.Invalidations += uint64(d.live)
	d.live, d.huge = 0, 0
	if d.gen == math.MaxUint16 {
		for i := range t.sets {
			s := &t.sets[i]
			for w := range tlbWays {
				if keyDev(s.keys[w]) == dev {
					s.gens[w] = 0
				}
			}
		}
		d.gen = 0
	}
	d.gen++
}
