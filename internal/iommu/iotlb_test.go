package iommu

import (
	"math"
	"math/rand"
	"testing"

	"github.com/asplos18/damn/internal/mem"
)

// residentPerSet counts the live entries of each set.
func residentPerSet(tlb *IOTLB) []int {
	perSet := make([]int, len(tlb.sets))
	for si := range tlb.sets {
		for w := range tlbWays {
			if tlb.live(&tlb.sets[si], w) {
				perSet[si]++
			}
		}
	}
	return perSet
}

// tlbHit is what a test's lookup reads of a hit.
type tlbHit struct {
	pfn  mem.PFN
	perm Perm
	huge bool
}

// lookup probes the cache for dev's page at iova as the page loop does,
// counting and ranking alike, for tests that drive the IOTLB alone.
func (t *IOTLB) lookup(dev int, iova IOVA) (tlbHit, bool) {
	d := t.grow(dev)
	for _, huge := range []bool{false, true} {
		tag := iova >> mem.PageShift
		if huge {
			if d.huge == 0 {
				break
			}
			tag = iova >> mem.HugePageShift
		}
		s := &t.sets[t.setIndex(dev, tag)]
		if w := s.find(tlbKey(dev, tag, huge), d.gen); w >= 0 {
			s.touch(w)
			t.Hits++
			k := s.keys[w]
			return tlbHit{mem.PFN(s.pfns[w]), Perm(k & keyPerm), k&keyHuge != 0}, true
		}
	}
	t.Misses++
	return tlbHit{}, false
}

// TestIOTLBSetIndexDistribution checks that a dense IOVA range spreads
// evenly over the sets: filling exactly Sets×tlbWays consecutive pages must
// leave every entry resident (no set receives more than tlbWays pages, so
// nothing is evicted).
func TestIOTLBSetIndexDistribution(t *testing.T) {
	cfg := IOTLBConfig{Sets: 64}
	tlb := NewIOTLB(cfg)
	dev := 1
	total := cfg.Sets * tlbWays
	for p := 0; p < total; p++ {
		iova := IOVA(p) << mem.PageShift
		tlb.insert(dev, iova, false, mem.PFN(p), PermRead)
	}
	perSet := residentPerSet(tlb)
	valid := 0
	for _, n := range perSet {
		valid += n
	}
	if valid != total {
		t.Fatalf("dense fill evicted entries: %d resident, want %d", valid, total)
	}
	for si, n := range perSet {
		if n != tlbWays {
			t.Fatalf("set %d holds %d entries, want %d (skewed index)", si, n, tlbWays)
		}
	}
	// Every inserted page must still translate without a walk.
	for p := 0; p < total; p++ {
		iova := IOVA(p) << mem.PageShift
		if _, ok := tlb.lookup(dev, iova); !ok {
			t.Fatalf("dense page %d missed after full fill", p)
		}
	}
}

// TestIOTLBAdversarialStride drives the all-same-set worst case: an IOVA
// stride of Sets pages maps every access to one set (the collision pattern
// DAMN's region-encoded IOVAs produce, Table 3). The set must behave as a
// bounded LRU: a just-inserted translation always hits, the most recent
// tlbWays entries stay resident, and older ones are evicted — never an
// unbounded pile-up or a pathological self-eviction.
func TestIOTLBAdversarialStride(t *testing.T) {
	cfg := IOTLBConfig{Sets: 64}
	tlb := NewIOTLB(cfg)
	dev := 1
	stride := IOVA(cfg.Sets) << mem.PageShift
	n := 3 * tlbWays
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		tlb.insert(dev, iova, false, mem.PFN(i), PermWrite)
		// The worst case must still hit immediately after its own insert.
		if e, ok := tlb.lookup(dev, iova); !ok {
			t.Fatalf("entry %d missed right after insert", i)
		} else if e.pfn != mem.PFN(i) {
			t.Fatalf("entry %d returned pfn %d, want %d", i, e.pfn, i)
		}
	}
	// Exactly one set is populated, at exactly tlbWays entries.
	si := tlb.setIndex(dev, 0)
	perSet := residentPerSet(tlb)
	for s, n := range perSet {
		if n > 0 && s != si {
			t.Fatalf("adversarial stride leaked into set %d (home set %d)", s, si)
		}
	}
	if perSet[si] != tlbWays {
		t.Fatalf("home set holds %d entries, want %d", perSet[si], tlbWays)
	}
	// LRU: the most recent tlbWays insertions survive, everything older
	// is gone.
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		_, ok := tlb.lookup(dev, iova)
		if want := i >= n-tlbWays; ok != want {
			t.Fatalf("entry %d resident=%v, want %v", i, ok, want)
		}
	}
}

// TestIOTLBAdversarialStrideHuge repeats the worst case with 2 MiB entries:
// huge-tag collisions must obey the same bounded-LRU behaviour.
func TestIOTLBAdversarialStrideHuge(t *testing.T) {
	cfg := IOTLBConfig{Sets: 16}
	tlb := NewIOTLB(cfg)
	dev := 2
	stride := IOVA(cfg.Sets) << mem.HugePageShift
	n := 4 * tlbWays
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		tlb.insert(dev, iova, true, mem.PFN(i), PermRead)
		if _, ok := tlb.lookup(dev, iova); !ok {
			t.Fatalf("huge entry %d missed right after insert", i)
		}
	}
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		_, ok := tlb.lookup(dev, iova)
		if want := i >= n-tlbWays; ok != want {
			t.Fatalf("huge entry %d resident=%v, want %v", i, ok, want)
		}
	}
}

// refIOTLB is the IOTLB as it was before entries carried generations and
// sets ranked their ways: a valid bit and a 64-bit clock stamp per entry,
// and domain invalidations that sweep every entry.
// TestIOTLBMatchesSweepReference drives it beside the real cache.
type refIOTLB struct {
	cfg     IOTLBConfig
	entries []refEntry
	clock   uint64

	Hits, Misses, Invalidations, FlushCommands uint64
}

type refEntry struct {
	tag   IOVA
	pfn   mem.PFN
	lru   uint64
	dev   int
	valid bool
	huge  bool
	perm  Perm
}

func newRefIOTLB(cfg IOTLBConfig) *refIOTLB {
	return &refIOTLB{cfg: cfg, entries: make([]refEntry, cfg.Sets*tlbWays)}
}

func (t *refIOTLB) set(dev int, tag IOVA) []refEntry {
	i := (int(tag) ^ dev*7) & (t.cfg.Sets - 1)
	return t.entries[i*tlbWays : (i+1)*tlbWays]
}

func (t *refIOTLB) lookup(dev int, iova IOVA) (*refEntry, bool) {
	t.clock++
	for _, probe := range []struct {
		tag  IOVA
		huge bool
	}{{iova >> mem.PageShift, false}, {iova >> mem.HugePageShift, true}} {
		set := t.set(dev, probe.tag)
		for i := range set {
			e := &set[i]
			if e.valid && e.dev == dev && e.huge == probe.huge && e.tag == probe.tag {
				e.lru = t.clock
				t.Hits++
				return e, true
			}
		}
	}
	t.Misses++
	return nil, false
}

func (t *refIOTLB) insert(dev int, iova IOVA, huge bool, pfn mem.PFN, perm Perm) {
	t.clock++
	tag := iova >> mem.PageShift
	if huge {
		tag = iova >> mem.HugePageShift
	}
	set := t.set(dev, tag)
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
	*victim = refEntry{valid: true, dev: dev, tag: tag, huge: huge, pfn: pfn, perm: perm, lru: t.clock}
}

func (t *refIOTLB) InvalidateRange(dev int, iova IOVA, size int) {
	t.FlushCommands++
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	if pages > 64 {
		end := iova + IOVA(size)
		for i := range t.entries {
			e := &t.entries[i]
			if !e.valid || e.dev != dev {
				continue
			}
			lo, hi := e.tag<<mem.PageShift, (e.tag+1)<<mem.PageShift
			if e.huge {
				lo, hi = e.tag<<mem.HugePageShift, (e.tag+1)<<mem.HugePageShift
			}
			if lo < end && iova < hi {
				e.valid = false
				t.Invalidations++
			}
		}
		return
	}
	for p := 0; p < pages; p++ {
		tag := iova>>mem.PageShift + IOVA(p)
		set := t.set(dev, tag)
		for i := range set {
			if e := &set[i]; e.valid && !e.huge && e.dev == dev && e.tag == tag {
				e.valid = false
				t.Invalidations++
			}
		}
	}
	for tag := iova >> mem.HugePageShift; tag <= (iova+IOVA(size)-1)>>mem.HugePageShift; tag++ {
		set := t.set(dev, tag)
		for i := range set {
			if e := &set[i]; e.valid && e.huge && e.dev == dev && e.tag == tag {
				e.valid = false
				t.Invalidations++
			}
		}
	}
}

func (t *refIOTLB) InvalidateDevice(dev int) {
	t.FlushCommands++
	for i := range t.entries {
		if e := &t.entries[i]; e.valid && e.dev == dev {
			e.valid = false
			t.Invalidations++
		}
	}
}

// tlbPair drives the IOTLB and the sweep reference with the same calls and
// fails the test at the first lookup or counter they disagree on.
type tlbPair struct {
	t   *testing.T
	got *IOTLB
	ref *refIOTLB
}

func newTLBPair(t *testing.T, cfg IOTLBConfig) *tlbPair {
	return &tlbPair{t: t, got: NewIOTLB(cfg), ref: newRefIOTLB(cfg)}
}

func (p *tlbPair) insert(dev int, iova IOVA, huge bool, pfn mem.PFN, perm Perm) {
	p.got.insert(dev, iova, huge, pfn, perm)
	p.ref.insert(dev, iova, huge, pfn, perm)
}

func (p *tlbPair) lookup(step int, dev int, iova IOVA) bool {
	p.t.Helper()
	e, ok := p.got.lookup(dev, iova)
	re, rok := p.ref.lookup(dev, iova)
	if ok != rok {
		p.t.Fatalf("step %d: lookup(dev %d, %#x) hit=%v, reference %v", step, dev, iova, ok, rok)
	}
	if ok && (e.pfn != re.pfn || e.perm != re.perm || e.huge != re.huge) {
		p.t.Fatalf("step %d: lookup(dev %d, %#x) = pfn %d perm %v huge %v, reference pfn %d perm %v huge %v",
			step, dev, iova, e.pfn, e.perm, e.huge, re.pfn, re.perm, re.huge)
	}
	return ok
}

func (p *tlbPair) check(step int) {
	p.t.Helper()
	g, r := p.got, p.ref
	if g.Hits != r.Hits || g.Misses != r.Misses || g.Invalidations != r.Invalidations || g.FlushCommands != r.FlushCommands {
		p.t.Fatalf("step %d: hits/misses/invalidations/flushes %d/%d/%d/%d, reference %d/%d/%d/%d", step,
			g.Hits, g.Misses, g.Invalidations, g.FlushCommands, r.Hits, r.Misses, r.Invalidations, r.FlushCommands)
	}
}

func (p *tlbPair) invalidateRange(dev int, iova IOVA, size int) {
	p.got.InvalidateRange(dev, iova, size)
	p.ref.InvalidateRange(dev, iova, size)
}

func (p *tlbPair) invalidateDevice(dev int) {
	p.got.InvalidateDevice(dev)
	p.ref.InvalidateDevice(dev)
}

// TestIOTLBMatchesSweepReference: the generation-tagged IOTLB, whose sets
// rank their ways in one byte, hits, misses, evicts and invalidates exactly
// as the sweeping one with a global clock did, over a seeded random mix of
// fills, lookups, small and large range invalidations and domain
// invalidations, on an 8×4 cache small enough to evict, with four devices
// holding 4 KiB and 2 MiB entries. Device 4 never fills an entry, and only
// its invalidations run.
func TestIOTLBMatchesSweepReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := newTLBPair(t, IOTLBConfig{Sets: 8})
		rng := rand.New(rand.NewSource(seed))
		page := func() IOVA { return IOVA(rng.Intn(1024)) << mem.PageShift }
		hits := 0
		for step := 0; step < 20000; step++ {
			dev := rng.Intn(4)
			switch op := rng.Intn(100); {
			case op < 35:
				huge := rng.Intn(5) == 0
				iova := page()
				if huge {
					iova = IOVA(rng.Intn(4)) << mem.HugePageShift
				}
				p.insert(dev, iova, huge, mem.PFN(rng.Intn(1<<20)), Perm(rng.Intn(3)+1))
			case op < 80:
				if p.lookup(step, dev, page()+IOVA(rng.Intn(mem.PageSize))) {
					hits++
				}
			case op < 92: // ≤ 64 pages: probes the range's sets
				p.invalidateRange(dev, page()+IOVA(rng.Intn(mem.PageSize)), rng.Intn(64*mem.PageSize)+1)
			case op < 96: // > 64 pages: sweeps
				p.invalidateRange(dev, page(), (rng.Intn(600)+65)*mem.PageSize)
			case op < 98:
				p.invalidateDevice(dev)
			default:
				p.invalidateDevice(4)
			}
			p.check(step)
		}
		if hits == 0 || p.got.Invalidations == 0 {
			t.Fatalf("seed %d: %d hits, %d invalidations; the mix exercised nothing", seed, hits, p.got.Invalidations)
		}
	}
}

// TestIOTLBGenerationWrap: when a device's generation wraps, its entries
// from earlier generations must not come back to life. Device 1 leaves
// entries dead at generations 1 and 2 and one killed by a range
// invalidation, its generation is set to the maximum (math.MaxUint16), and
// two domain invalidations take it past the wrap to generation 2, each
// followed by a fresh fill; every old entry must still miss, the fresh one
// must hit, and device 2's live entry must survive.
func TestIOTLBGenerationWrap(t *testing.T) {
	p := newTLBPair(t, IOTLBConfig{Sets: 8})
	step := 0
	p.insert(1, 0x1000, false, 1, PermRW)
	p.insert(2, 0x5000, false, 5, PermRW)
	p.invalidateDevice(1) // 0x1000 dead at generation 1
	p.insert(1, 0x2000, false, 2, PermRW)
	p.insert(1, 0x3000, false, 3, PermRW)
	p.invalidateRange(1, 0x3000, mem.PageSize)
	p.invalidateDevice(1) // 0x2000 dead at generation 2
	if g := p.got.devs[1]; g.gen != 3 || g.live != 0 {
		t.Fatalf("device 1 at generation %d with %d live entries, want 3 and 0", g.gen, g.live)
	}
	p.got.devs[1].gen = math.MaxUint16
	p.insert(1, 0x4000, false, 4, PermRW)
	for i := 0; i < 2; i++ {
		p.invalidateDevice(1)
		fresh := IOVA(0x6000 + i*mem.PageSize)
		p.insert(1, fresh, false, 6, PermRW)
		step++
		if !p.lookup(step, 1, fresh) {
			t.Fatalf("fill %#x after %d invalidations past the maximum generation misses", fresh, i+1)
		}
		for _, v := range []IOVA{0x1000, 0x2000, 0x3000, 0x4000} {
			step++
			if p.lookup(step, 1, v) {
				t.Fatalf("after %d invalidations past the maximum generation, dev 1 %#x hits", i+1, v)
			}
		}
		step++
		if !p.lookup(step, 2, 0x5000) {
			t.Fatal("device 2's entry died with device 1's generation")
		}
		p.check(step)
	}
	if g := p.got.devs[1].gen; g != 2 {
		t.Fatalf("device 1 at generation %d after wrapping twice, want 2", g)
	}
}
