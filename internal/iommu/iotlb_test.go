package iommu

import (
	"testing"

	"github.com/asplos18/damn/internal/mem"
)

// residentPerSet counts the valid entries of each set.
func residentPerSet(tlb *IOTLB) []int {
	perSet := make([]int, tlb.cfg.Sets)
	for si := range perSet {
		for _, e := range tlb.set(si) {
			if e.valid {
				perSet[si]++
			}
		}
	}
	return perSet
}

// TestIOTLBSetIndexDistribution checks that a dense IOVA range spreads
// evenly over the sets: filling exactly Sets×Ways consecutive pages must
// leave every entry resident (no set receives more than Ways pages, so
// nothing is evicted).
func TestIOTLBSetIndexDistribution(t *testing.T) {
	cfg := IOTLBConfig{Sets: 64, Ways: 4}
	tlb := NewIOTLB(cfg)
	dev := 1
	total := cfg.Sets * cfg.Ways
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
		if n != cfg.Ways {
			t.Fatalf("set %d holds %d entries, want %d (skewed index)", si, n, cfg.Ways)
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
// Ways entries stay resident, and older ones are evicted — never an
// unbounded pile-up or a pathological self-eviction.
func TestIOTLBAdversarialStride(t *testing.T) {
	cfg := IOTLBConfig{Sets: 64, Ways: 4}
	tlb := NewIOTLB(cfg)
	dev := 1
	stride := IOVA(cfg.Sets) << mem.PageShift
	n := 3 * cfg.Ways
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
	// Exactly one set is populated, at exactly Ways entries.
	si := tlb.setIndex(dev, 0)
	perSet := residentPerSet(tlb)
	for s, n := range perSet {
		if n > 0 && s != si {
			t.Fatalf("adversarial stride leaked into set %d (home set %d)", s, si)
		}
	}
	if perSet[si] != cfg.Ways {
		t.Fatalf("home set holds %d entries, want %d", perSet[si], cfg.Ways)
	}
	// LRU: the most recent Ways insertions survive, everything older is
	// gone.
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		_, ok := tlb.lookup(dev, iova)
		if want := i >= n-cfg.Ways; ok != want {
			t.Fatalf("entry %d resident=%v, want %v", i, ok, want)
		}
	}
}

// TestIOTLBAdversarialStrideHuge repeats the worst case with 2 MiB entries:
// huge-tag collisions must obey the same bounded-LRU behaviour.
func TestIOTLBAdversarialStrideHuge(t *testing.T) {
	cfg := IOTLBConfig{Sets: 16, Ways: 2}
	tlb := NewIOTLB(cfg)
	dev := 2
	stride := IOVA(cfg.Sets) << mem.HugePageShift
	n := 4 * cfg.Ways
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
		if want := i >= n-cfg.Ways; ok != want {
			t.Fatalf("huge entry %d resident=%v, want %v", i, ok, want)
		}
	}
}
