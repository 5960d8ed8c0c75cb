package iova

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/asplos18/damn/internal/iommu"
)

func TestAllocTopDown(t *testing.T) {
	a := NewAllocator(0x1000, 0x100000)
	v1, err := a.Alloc(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.Alloc(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 0xFF000 || v2 != 0xFE000 {
		t.Fatalf("top-down allocation gave %#x, %#x", v1, v2)
	}
}

func TestAllocRoundsToPages(t *testing.T) {
	a := NewAllocator(0x1000, 0x100000)
	v, err := a.Alloc(100) // rounds to 4 KiB
	if err != nil {
		t.Fatal(err)
	}
	if a.SizeOf(v) != 0x1000 {
		t.Fatalf("SizeOf = %#x, want page", a.SizeOf(v))
	}
}

func TestFreeCoalesces(t *testing.T) {
	a := NewAllocator(0x1000, 0x100000)
	total := a.FreeBytes()
	var vs []iommu.IOVA
	for i := 0; i < 10; i++ {
		v, err := a.Alloc(0x3000)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	// Free in shuffled order.
	order := []int{3, 7, 1, 9, 0, 5, 2, 8, 6, 4}
	for _, i := range order {
		if err := a.Free(vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeBytes() != total {
		t.Fatalf("FreeBytes = %#x, want %#x", a.FreeBytes(), total)
	}
	// After full coalescing, one max-size allocation must succeed.
	if _, err := a.Alloc(int(total)); err != nil {
		t.Fatalf("full-space alloc after coalesce: %v", err)
	}
}

func TestFreeUnknownFails(t *testing.T) {
	a := NewAllocator(0x1000, 0x100000)
	if err := a.Free(0x2000); err == nil {
		t.Fatal("free of unallocated base should fail")
	}
}

func TestExhaustion(t *testing.T) {
	a := NewAllocator(0x1000, 0x5000) // 4 pages
	for i := 0; i < 4; i++ {
		if _, err := a.Alloc(0x1000); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(0x1000); err == nil {
		t.Fatal("expected exhaustion")
	}
}

func TestAllocatorNoOverlap(t *testing.T) {
	a := NewAllocator(0x1000, 0x200000)
	rng := rand.New(rand.NewSource(3))
	live := map[iommu.IOVA]int{}
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			size := (rng.Intn(8) + 1) * 0x1000
			v, err := a.Alloc(size)
			if err != nil {
				continue
			}
			for b, s := range live {
				if v < b+iommu.IOVA(s) && b < v+iommu.IOVA(size) {
					t.Fatalf("overlap: [%#x,+%#x) with [%#x,+%#x)", v, size, b, s)
				}
			}
			live[v] = size
		} else {
			for b := range live {
				a.Free(b)
				delete(live, b)
				break
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	check := func(cpu uint8, rightsRaw uint8, dev uint8, offRaw uint32) bool {
		c := int(cpu) % (MaxCPU + 1)
		d := int(dev) % (MaxDev + 1)
		rights := iommu.Perm(rightsRaw%3 + 1) // 1..3: R, W, RW
		off := uint64(offRaw) % OffsetSpace
		v, err := Encode(c, rights, d, off)
		if err != nil {
			return false
		}
		if !IsDAMN(v) {
			return false
		}
		e, ok := Decode(v)
		if !ok {
			return false
		}
		return e.CPU == c && e.Rights == rights && e.Dev == d && e.Offset == off
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsBadInputs(t *testing.T) {
	if _, err := Encode(MaxCPU+1, iommu.PermRead, 0, 0); err == nil {
		t.Error("cpu overflow accepted")
	}
	if _, err := Encode(0, iommu.PermRead, MaxDev+1, 0); err == nil {
		t.Error("dev overflow accepted")
	}
	if _, err := Encode(0, 0, 0, 0); err == nil {
		t.Error("zero rights accepted")
	}
	if _, err := Encode(0, iommu.PermRead, 0, OffsetSpace); err == nil {
		t.Error("offset overflow accepted")
	}
}

func TestAPIAndDAMNSpacesDisjoint(t *testing.T) {
	a := NewAPIAllocator()
	for i := 0; i < 100; i++ {
		v, err := a.Alloc(0x10000)
		if err != nil {
			t.Fatal(err)
		}
		if IsDAMN(v) {
			t.Fatalf("API allocator produced DAMN-partition IOVA %#x", v)
		}
	}
	v, _ := Encode(5, iommu.PermWrite, 3, 0x1234000)
	if !IsDAMN(v) {
		t.Fatal("encoded IOVA must be in DAMN partition")
	}
}

func TestRegionsDisjointAcrossIdentities(t *testing.T) {
	// Distinct (cpu, rights, dev) triples must produce disjoint 1 GiB
	// regions — this is what lets dma_unmap identify the allocator.
	seen := map[iommu.IOVA]string{}
	for cpu := 0; cpu < 4; cpu++ {
		for _, rights := range []iommu.Perm{iommu.PermRead, iommu.PermWrite, iommu.PermRW} {
			for dev := 0; dev < 4; dev++ {
				base, err := RegionBase(cpu, rights, dev)
				if err != nil {
					t.Fatal(err)
				}
				if who, dup := seen[base]; dup {
					t.Fatalf("region base %#x shared by two identities (%s)", base, who)
				}
				seen[base] = "seen"
			}
		}
	}
}

func TestDecodeNonDAMN(t *testing.T) {
	if _, ok := Decode(0x1234000); ok {
		t.Fatal("non-DAMN IOVA decoded")
	}
}

// TestSizeOfAndFreeBounds: SizeOf and Free index the size table only with
// the base of a live range. Every other address — below lo, at or above
// hi, unaligned, inside a live range, freed, deeper than any allocation,
// in the DAMN half — gives 0 and an error, and leaves the live ranges and
// the free space alone.
func TestSizeOfAndFreeBounds(t *testing.T) {
	const lo, hi = iommu.IOVA(0x100000), iommu.IOVA(0x200000)
	a := NewAllocator(lo, hi)
	top, _ := a.Alloc(0x1000)   // depth 0
	multi, _ := a.Alloc(0x3000) // depth 3
	gone, _ := a.Alloc(0x2000)
	if top != hi-0x1000 || multi != hi-0x4000 {
		t.Fatalf("allocations at %#x and %#x, want %#x and %#x", top, multi, hi-0x1000, hi-0x4000)
	}
	if d, ok := a.Depth(multi); !ok || d != 3 {
		t.Fatalf("Depth(%#x) = %d, %v; want 3, true", multi, d, ok)
	}
	if err := a.Free(gone); err != nil {
		t.Fatal(err)
	}
	free := a.FreeBytes()
	for _, c := range []struct {
		name string
		v    iommu.IOVA
	}{
		{"zero", 0},
		{"below lo", lo - 0x1000},
		{"lo, never allocated", lo},
		{"deeper than any allocation", lo + 0x1000},
		{"hi", hi},
		{"above hi", hi + 0x1000},
		{"unaligned in the top page", top + 1},
		{"unaligned below hi", hi - 1},
		{"inside a live range", multi + 0x1000},
		{"freed base", gone},
		{"DAMN half", DAMNBit},
		{"top of the address space", math.MaxUint64 &^ 0xFFF},
	} {
		if n := a.SizeOf(c.v); n != 0 {
			t.Errorf("%s: SizeOf(%#x) = %#x, want 0", c.name, c.v, n)
		}
		if err := a.Free(c.v); err == nil {
			t.Errorf("%s: Free(%#x) succeeded", c.name, c.v)
		}
	}
	if a.FreeBytes() != free || a.SizeOf(top) != 0x1000 || a.SizeOf(multi) != 0x3000 {
		t.Fatalf("rejected frees moved state: free %#x (was %#x), sizes %#x, %#x", a.FreeBytes(), free, a.SizeOf(top), a.SizeOf(multi))
	}
	for _, v := range []iommu.IOVA{top, multi} {
		if err := a.Free(v); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeBytes() != uint64(hi-lo) {
		t.Fatalf("FreeBytes = %#x after freeing everything, want %#x", a.FreeBytes(), hi-lo)
	}
}

// TestAllocStaysWithinTheTablesReach: the size table covers the top
// maxDepth pages. A size larger than that is a bad size, not exhaustion,
// even where the space could hold it, and does not grow the table; a range
// that would start below the reach is exhaustion and changes nothing.
func TestAllocStaysWithinTheTablesReach(t *testing.T) {
	a := NewAPIAllocator()
	for _, size := range []int{maxDepth<<12 + 1, (math.MaxUint32 + 1) << 12, math.MaxInt} {
		if v, err := a.Alloc(size); err == nil || errors.Is(err, ErrExhausted) {
			t.Errorf("Alloc(%#x) = %#x, %v; want a bad-size error", size, v, err)
		}
	}
	if len(a.pages) != 0 {
		t.Fatalf("rejected sizes grew the table to %d entries", len(a.pages))
	}
	if _, err := a.Alloc((maxDepth - 1) << 12); err != nil {
		t.Fatal(err)
	}
	free := a.FreeBytes()
	if _, err := a.Alloc(2 << 12); !errors.Is(err, ErrExhausted) {
		t.Fatalf("a range starting below the reach: err = %v, want exhaustion", err)
	}
	if a.FreeBytes() != free || len(a.pages) != maxDepth-1 {
		t.Fatalf("failed Alloc moved state: free %#x (was %#x), table %d entries", a.FreeBytes(), free, len(a.pages))
	}
	if v, err := a.Alloc(1 << 12); err != nil || v != APISpaceHi-maxDepth<<12 {
		t.Fatalf("the reach's last page: %#x, %v; want %#x", v, err, APISpaceHi-maxDepth<<12)
	}
}
