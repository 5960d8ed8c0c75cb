package iommu

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/asplos18/damn/internal/mem"
)

func newTestIOMMU(t *testing.T) (*IOMMU, *mem.Memory) {
	t.Helper()
	m, err := mem.New(mem.Config{TotalBytes: 64 << 20, NUMANodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(m), m
}

func allocPA(t *testing.T, m *mem.Memory, order int) mem.PhysAddr {
	t.Helper()
	p, err := m.AllocPages(order, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p.PFN().Addr()
}

func TestMapTranslateUnmap(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	const iova = IOVA(0x100000)
	if err := u.Map(1, iova, pa, mem.PageSize, PermRW); err != nil {
		t.Fatalf("Map: %v", err)
	}
	got, err := u.Translate(1, iova+123, true)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if got != pa+123 {
		t.Fatalf("Translate = %#x, want %#x", got, pa+123)
	}
	if err := u.Unmap(1, iova, mem.PageSize); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	u.TLB().InvalidateRange(1, iova, mem.PageSize)
	if _, err := u.Translate(1, iova, true); err == nil {
		t.Fatal("translate after unmap+invalidate should fault")
	}
}

// TestMapUnmapAllOrNothing: a Map that meets an already-mapped page and an
// Unmap that meets an unmapped one change nothing — no page of the failed
// call stays mapped or goes missing, and the page and operation counts do
// not move.
func TestMapUnmapAllOrNothing(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	mine := allocPA(t, m, 0)
	if err := u.Map(1, 0x12000, mine, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	caller := allocPA(t, m, 2)
	if err := u.Map(1, 0x10000, caller, 4*mem.PageSize, PermRW); err == nil || !strings.Contains(err.Error(), "already mapped") {
		t.Fatalf("4-page map over a mapped page: err = %v, want already mapped", err)
	}
	for _, v := range []IOVA{0x10000, 0x11000, 0x13000} {
		if pa, err := u.Translate(1, v, true); err == nil {
			t.Fatalf("failed map left %#x translating to %#x", v, pa)
		}
	}
	if got := u.MappedPages(1); got != 1 {
		t.Fatalf("MappedPages after failed map = %d, want 1", got)
	}
	maps, unmaps := u.Mappings, u.Unmappings
	for _, v := range []IOVA{0x11000, 0x12000} { // each range holds one unmapped page
		if err := u.Unmap(1, v, 2*mem.PageSize); err == nil {
			t.Fatalf("2-page unmap at %#x with an unmapped page succeeded", v)
		}
	}
	if got := u.MappedPages(1); got != 1 {
		t.Fatalf("MappedPages after failed unmaps = %d, want 1", got)
	}
	if u.Mappings != maps || u.Unmappings != unmaps {
		t.Fatalf("Mappings/Unmappings moved to %d/%d from %d/%d on failed calls", u.Mappings, u.Unmappings, maps, unmaps)
	}
	if pa, err := u.Translate(1, 0x12000, true); err != nil || pa != mine {
		t.Fatalf("Translate(0x12000) = %#x, %v after failed calls; want %#x", pa, err, mine)
	}
	if err := u.Unmap(1, 0x12000, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := u.MappedPages(1); got != 0 {
		t.Fatalf("MappedPages after the real unmap = %d, want 0", got)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	if err := u.Map(1, 0x1000, pa, mem.PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(1, 0x1000, false); err != nil {
		t.Fatalf("read should be allowed: %v", err)
	}
	if _, err := u.Translate(1, 0x1000, true); err == nil {
		t.Fatal("write to read-only mapping should fault")
	}
	var f Fault
	if !errors.As(func() error { _, err := u.Translate(1, 0x1000, true); return err }(), &f) {
		t.Fatal("fault should be a Fault")
	}
	if f.Dev != 1 || !f.Write {
		t.Fatalf("bad fault contents: %+v", f)
	}
}

func TestPermCachedInTLBStillChecked(t *testing.T) {
	// A read fill must not grant write through the cached entry.
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	if err := u.Map(1, 0x1000, pa, mem.PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(1, 0x1000, false); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(1, 0x1000, true); err == nil {
		t.Fatal("TLB hit must still enforce permissions")
	}
}

func TestUnattachedDeviceBlocked(t *testing.T) {
	u, _ := newTestIOMMU(t)
	if _, err := u.Translate(9, 0x1000, false); err == nil {
		t.Fatal("unattached device should fault")
	}
	if u.BlockedDMAs != 1 {
		t.Fatalf("BlockedDMAs = %d", u.BlockedDMAs)
	}
	if recs := u.ReadFaultRecords(); len(recs) != 1 || recs[0].Dev != 9 {
		t.Fatalf("fault records = %+v, want one from device 9", recs)
	}
}

func TestDeferredWindowViaIOTLB(t *testing.T) {
	// The crux of §4.1: after Unmap but before IOTLB invalidation, a
	// previously cached translation still works — the TOCTTOU window.
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	const iova = IOVA(0x200000)
	if err := u.Map(1, iova, pa, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// Prime the IOTLB.
	if _, err := u.Translate(1, iova, true); err != nil {
		t.Fatal(err)
	}
	if err := u.Unmap(1, iova, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	// No invalidation yet: the stale entry still translates.
	got, err := u.Translate(1, iova, true)
	if err != nil {
		t.Fatal("expected stale IOTLB entry to keep working (the vulnerability window)")
	}
	if got != pa {
		t.Fatalf("stale translation = %#x, want %#x", got, pa)
	}
	// After invalidation the window closes.
	u.TLB().InvalidateRange(1, iova, mem.PageSize)
	if _, err := u.Translate(1, iova, true); err == nil {
		t.Fatal("translate after invalidation should fault")
	}
}

func TestMultiPageMap(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 4) // 16 contiguous pages
	const iova = IOVA(0x400000)
	if err := u.Map(1, iova, pa, 16*mem.PageSize, PermWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got, err := u.Translate(1, iova+IOVA(i*mem.PageSize)+7, true)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := pa + mem.PhysAddr(i*mem.PageSize) + 7
		if got != want {
			t.Fatalf("page %d: got %#x want %#x", i, got, want)
		}
	}
	if u.MappedPages(1) != 16 {
		t.Fatalf("MappedPages = %d", u.MappedPages(1))
	}
}

func TestDoubleMapRejected(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	if err := u.Map(1, 0x1000, pa, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(1, 0x1000, pa, mem.PageSize, PermRW); err == nil {
		t.Fatal("double map should fail")
	}
}

func TestUnalignedRejected(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	if err := u.Map(1, 0x1001, pa, mem.PageSize, PermRW); err == nil {
		t.Fatal("unaligned iova should fail")
	}
	if err := u.Map(1, 0x1000, pa+1, mem.PageSize, PermRW); err == nil {
		t.Fatal("unaligned pa should fail")
	}
	if err := u.Map(1, 0x1000, pa, mem.PageSize, 0); err == nil {
		t.Fatal("empty perm should fail")
	}
}

func TestHugePageMapping(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	// Need a 2 MiB aligned physical block: order 9 = 512 pages = 2 MiB.
	p, err := m.AllocPages(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa := p.PFN().Addr()
	if pa&mem.HugePageMask != 0 {
		t.Fatalf("order-9 block not 2 MiB aligned: %#x", pa)
	}
	const iova = IOVA(0x40000000) // 1 GiB, 2 MiB aligned
	if err := u.MapHuge(1, iova, pa, PermRW); err != nil {
		t.Fatalf("MapHuge: %v", err)
	}
	// Translate addresses all across the 2 MiB range.
	for _, off := range []IOVA{0, 4096, 1 << 20, mem.HugePageSize - 1} {
		got, err := u.Translate(1, iova+off, true)
		if err != nil {
			t.Fatalf("huge translate +%#x: %v", off, err)
		}
		if got != pa+mem.PhysAddr(off) {
			t.Fatalf("huge translate +%#x: got %#x", off, got)
		}
	}
	if u.MappedPages(1) != 512 {
		t.Fatalf("MappedPages = %d, want 512", u.MappedPages(1))
	}
	if err := u.UnmapHuge(1, iova); err != nil {
		t.Fatal(err)
	}
	u.TLB().InvalidateDevice(1)
	if _, err := u.Translate(1, iova, true); err == nil {
		t.Fatal("translate after huge unmap should fault")
	}
}

func TestHugeTLBEntryCoversRange(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	p, _ := m.AllocPages(9, 0)
	const iova = IOVA(0x40000000)
	if err := u.MapHuge(1, iova, p.PFN().Addr(), PermRW); err != nil {
		t.Fatal(err)
	}
	u.Translate(1, iova, true) // miss + fill
	misses := u.TLB().Misses
	// Every other page in the same 2 MiB region must now hit.
	for off := IOVA(mem.PageSize); off < mem.HugePageSize; off += 64 * mem.PageSize {
		if _, err := u.Translate(1, iova+off, true); err != nil {
			t.Fatal(err)
		}
	}
	if u.TLB().Misses != misses {
		t.Fatalf("expected all translations within huge page to hit; misses grew %d -> %d", misses, u.TLB().Misses)
	}
}

func TestPassthrough(t *testing.T) {
	u, m := newTestIOMMU(t)
	d := u.AttachDevice(1)
	d.Passthrough = true
	pa := allocPA(t, m, 0)
	got, err := u.Translate(1, IOVA(pa)+5, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != pa+5 {
		t.Fatalf("passthrough translate = %#x", got)
	}
}

// TestPassthroughDMAPastTopOfAddressSpace: a passthrough domain hands the
// device's IOVA to the copy as the physical address, so a device can name
// a range that ends at or past 2^64. Both directions must fail the RAM
// bounds check with nothing copied, never panic.
func TestPassthroughDMAPastTopOfAddressSpace(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1).Passthrough = true
	for _, c := range []struct {
		iova IOVA
		n    int
	}{
		{0xFFFFFFFFFFFFF000, 4096},
		{1<<64 - 100, 100},
	} {
		buf := make([]byte, c.n)
		for i := range buf {
			buf[i] = 0xAB
		}
		if n, err := u.DMAWrite(1, c.iova, buf); n != 0 || err == nil || !strings.Contains(err.Error(), "out of RAM bounds") {
			t.Errorf("DMAWrite(%#x, %d) = %d, %v; want 0 and the out-of-RAM error", c.iova, c.n, n, err)
		}
		if n, err := u.DMARead(1, c.iova, buf); n != 0 || err == nil || !strings.Contains(err.Error(), "out of RAM bounds") {
			t.Errorf("DMARead(%#x, %d) = %d, %v; want 0 and the out-of-RAM error", c.iova, c.n, n, err)
		}
		for i, b := range buf {
			if b != 0xAB {
				t.Fatalf("DMARead(%#x) wrote %#x into byte %d of the device buffer", c.iova, b, i)
			}
		}
	}
	for pa, b := range m.Bytes(0, m.NumPages()*mem.PageSize) {
		if b != 0 {
			t.Fatalf("a rejected DMA wrote RAM at %#x", pa)
		}
	}
}

func TestDMAReadWrite(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 1) // 2 pages, to cross a page boundary
	const iova = IOVA(0x10000)
	if err := u.Map(1, iova, pa, 2*mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 6000) // crosses the page boundary
	for i := range msg {
		msg[i] = byte(i)
	}
	n, err := u.DMAWrite(1, iova+100, msg)
	if err != nil || n != len(msg) {
		t.Fatalf("DMAWrite = %d, %v", n, err)
	}
	// The kernel-side view must see the same bytes.
	kernel := m.Bytes(pa+100, len(msg))
	for i := range msg {
		if kernel[i] != msg[i] {
			t.Fatalf("byte %d: %d != %d", i, kernel[i], msg[i])
		}
	}
	back := make([]byte, len(msg))
	n, err = u.DMARead(1, iova+100, back)
	if err != nil || n != len(back) {
		t.Fatalf("DMARead = %d, %v", n, err)
	}
	for i := range back {
		if back[i] != msg[i] {
			t.Fatalf("readback byte %d mismatch", i)
		}
	}
}

func TestDMAFaultStopsAtBoundary(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	const iova = IOVA(0x10000)
	if err := u.Map(1, iova, pa, mem.PageSize, PermWrite); err != nil {
		t.Fatal(err)
	}
	// Attempt to write 2 pages; only the first is mapped.
	buf := make([]byte, 2*mem.PageSize)
	n, err := u.DMAWrite(1, iova, buf)
	if err == nil {
		t.Fatal("expected fault on second page")
	}
	if n != mem.PageSize {
		t.Fatalf("transferred %d bytes before fault, want %d", n, mem.PageSize)
	}
}

// TestDMAPastDomainWidthFaults: an IOVA at or past 2^48 lies outside the
// domain, so a device's DMA there faults before the IOTLB is consulted,
// whatever the page tables hold at its low 48 bits. Were the alias
// 2^48+X to translate as X, its IOTLB entry would carry a tag of its own,
// and the strict unmap of X (unmap, then invalidate X) would leave the
// alias writing X's freed frame.
func TestDMAPastDomainWidthFaults(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	const x = IOVA(0x10000)
	const alias = IOVA(1)<<iovaBits + x
	pa := allocPA(t, m, 0)
	if err := u.Map(1, x, pa, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	top := maxIOVA &^ IOVA(mem.PageMask)
	for _, v := range []IOVA{0, top} {
		if err := u.Map(1, v, allocPA(t, m, 0), mem.PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	blocked := func(want uint64, what string) {
		t.Helper()
		if u.BlockedDMAs != want || u.BlockedDMAsFor(1) != want {
			t.Fatalf("%s: %d blocked DMAs (%d for dev 1), want %d", what, u.BlockedDMAs, u.BlockedDMAsFor(1), want)
		}
	}
	evil := []byte("alias")
	if n, err := u.DMAWrite(1, alias, evil); n != 0 || !errors.As(err, new(Fault)) {
		t.Fatalf("DMAWrite at 2^48+%#x = %d, %v; want 0 and a fault", x, n, err)
	}
	blocked(1, "write at the alias")
	if _, err := u.DMAWrite(1, x, []byte("mine")); err != nil {
		t.Fatalf("DMAWrite at %#x: %v", x, err)
	}
	// The top page of the domain translates; the page after it does not.
	if n, err := u.DMAWrite(1, top, make([]byte, 2*mem.PageSize)); n != mem.PageSize || !errors.As(err, new(Fault)) {
		t.Fatalf("2-page DMAWrite from the top page = %d, %v; want %d and a fault", n, err, mem.PageSize)
	}
	blocked(2, "write across the top of the domain")
	// A span whose second page wraps past 2^64 to IOVA 0 (mapped) faults
	// on both pages.
	if err := u.TranslateSpan(1, 1<<64-mem.PageSize, 2*mem.PageSize, false); !errors.As(err, new(Fault)) {
		t.Fatalf("span wrapping past 2^64: %v, want a fault", err)
	}
	blocked(4, "span wrapping past 2^64")
	if err := u.Unmap(1, x, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	u.TLB().InvalidateRange(1, x, mem.PageSize)
	for _, v := range []IOVA{x, alias} {
		if _, err := u.DMAWrite(1, v, evil); err == nil {
			t.Fatalf("DMAWrite at %#x after the strict unmap of %#x succeeded", v, x)
		}
	}
	blocked(6, "writes after the unmap")
	if got := string(m.Bytes(pa, 4)); got != "mine" {
		t.Fatalf("freed frame holds %q, want %q", got, "mine")
	}
	recs := u.ReadFaultRecords()
	var addrs []IOVA
	for _, r := range recs {
		if r.Injected || r.Dev != 1 {
			t.Fatalf("fault record %+v, want a genuine one from dev 1", r)
		}
		addrs = append(addrs, r.Addr)
	}
	want := []IOVA{alias, top + mem.PageSize, 1<<64 - mem.PageSize, 0, x, alias}
	if !reflect.DeepEqual(addrs, want) {
		t.Fatalf("fault records at %#x, want %#x", addrs, want)
	}
}

// TestMapUnmapHoldDomainWidth: the OS's map and unmap calls refuse a range
// that does not fit below 2^48 without overflow, as device DMAs fault past
// it, and change nothing. The walk reads only bits 12–47, so each such
// call would otherwise act on the alias 2^48 below: map the device a page
// it was never given, or unmap one still in use.
func TestMapUnmapHoldDomainWidth(t *testing.T) {
	const width = IOVA(1) << iovaBits
	const hugeOrder = mem.HugePageShift - mem.PageShift
	for _, c := range []struct {
		name   string
		at0    int // pages mapped at IOVA 0 before the call: 0, 1 or a 2 MiB page's 512
		op     func(u *IOMMU, m *mem.Memory) error
		probe  IOVA
		mapped bool // whether probe translates after the call
	}{
		{"MapHuge at 2^48 + 1 GiB", 0, func(u *IOMMU, m *mem.Memory) error {
			return u.MapHuge(1, width+1<<30, allocPA(t, m, hugeOrder), PermRW)
		}, 1 << 30, false},
		{"Map of 8 KiB at 2^64 − 4 KiB", 0, func(u *IOMMU, m *mem.Memory) error {
			return u.Map(1, 1<<64-mem.PageSize, allocPA(t, m, 1), 2*mem.PageSize, PermRW)
		}, 0, false},
		{"Unmap of 4 KiB at 2^48", 1, func(u *IOMMU, _ *mem.Memory) error {
			return u.Unmap(1, width, mem.PageSize)
		}, 0, true},
		{"UnmapHuge at 2^48", 512, func(u *IOMMU, _ *mem.Memory) error {
			return u.UnmapHuge(1, width)
		}, 0, true},
	} {
		u, m := newTestIOMMU(t)
		u.AttachDevice(1)
		var err error
		switch c.at0 {
		case 1:
			err = u.Map(1, 0, allocPA(t, m, 0), mem.PageSize, PermRW)
		case 512:
			err = u.MapHuge(1, 0, allocPA(t, m, hugeOrder), PermRW)
		}
		if err != nil {
			t.Fatal(err)
		}
		pages, maps, unmaps := u.MappedPages(1), u.Mappings, u.Unmappings
		if err := c.op(u, m); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if u.MappedPages(1) != pages || u.Mappings != maps || u.Unmappings != unmaps {
			t.Errorf("%s: mapped pages %d → %d, maps %d → %d, unmaps %d → %d; want no change",
				c.name, pages, u.MappedPages(1), maps, u.Mappings, unmaps, u.Unmappings)
		}
		if _, err := u.Translate(1, c.probe, false); (err == nil) != c.mapped {
			t.Errorf("%s: DMA at %#x: %v, want translated=%v", c.name, c.probe, err, c.mapped)
		}
	}
}

func TestIOTLBEviction(t *testing.T) {
	tlb := NewIOTLB(IOTLBConfig{Sets: 1}) // one 4-way set: 4 entries
	for i := 0; i < 100; i++ {
		tlb.insert(1, IOVA(i)<<mem.PageShift, false, mem.PFN(i), PermRW)
	}
	live := 0
	for i := 0; i < 100; i++ {
		if _, ok := tlb.lookup(1, IOVA(i)<<mem.PageShift); ok {
			live++
		}
	}
	if live > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", live)
	}
	if live == 0 {
		t.Fatal("cache retained nothing")
	}
}

func TestIOTLBInvalidateDevice(t *testing.T) {
	tlb := NewIOTLB(DefaultIOTLBConfig())
	tlb.insert(1, 0x1000, false, 1, PermRW)
	tlb.insert(2, 0x1000, false, 2, PermRW)
	tlb.InvalidateDevice(1)
	if _, ok := tlb.lookup(1, 0x1000); ok {
		t.Fatal("dev 1 entry should be gone")
	}
	if _, ok := tlb.lookup(2, 0x1000); !ok {
		t.Fatal("dev 2 entry should survive")
	}
}

func TestEverMappedMonotone(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	for i := 0; i < 5; i++ {
		pa := allocPA(t, m, 0)
		iova := IOVA(0x1000 * (i + 1))
		if err := u.Map(1, iova, pa, mem.PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		if err := u.Unmap(1, iova, mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if u.MappedPages(1) != 0 {
		t.Fatalf("MappedPages = %d, want 0", u.MappedPages(1))
	}
}

func TestHitRate(t *testing.T) {
	u, m := newTestIOMMU(t)
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	u.Map(1, 0x1000, pa, mem.PageSize, PermRW)
	u.Translate(1, 0x1000, true) // miss
	u.Translate(1, 0x1000, true) // hit
	u.Translate(1, 0x1000, true) // hit
	if tlb := u.TLB(); tlb.Hits != 2 || tlb.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", tlb.Hits, tlb.Misses)
	}
}

// TestAttachDeviceIDFitsTLBTag: an IOTLB set is one 64-byte cache line
// whose keys tag their device with 16 bits, so AttachDevice refuses an id
// that would alias another device's.
func TestAttachDeviceIDFitsTLBTag(t *testing.T) {
	if got := unsafe.Sizeof(tlbSet{}); got != 64 {
		t.Errorf("tlbSet is %d bytes, want 64", got)
	}
	u, _ := newTestIOMMU(t)
	u.AttachDevice(math.MaxUint16)
	wide := math.MaxInt32
	wide++
	for _, dev := range []int{-1, math.MaxUint16 + 1, wide} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AttachDevice(%d) did not panic", dev)
				}
			}()
			u.AttachDevice(dev)
		}()
	}
}

// TestDMATouchMatchesDMARead: the copy-free device read leaves the IOMMU
// exactly as DMARead into an n-byte buffer does — the same count and error,
// the same translation, IOTLB and blocked-DMA counts and the same fault
// records — and both stop at the first fault and at the end of RAM.
func TestDMATouchMatchesDMARead(t *testing.T) {
	const base = IOVA(0x10000)
	ramEnd := IOVA(64 << 20) // newTestIOMMU's RAM
	for _, c := range []struct {
		name        string
		passthrough bool
		iova        IOVA
		n           int
		// What both reads must report.
		done, translations int
		blocked            uint64
		errText            string
	}{
		{"prefix inside one mapped page", false, base + 100, 256, 256, 1, 0, ""},
		// Pages 0 and 2 are mapped, page 1 is not: one fault, then stop.
		{"prefix runs into an unmapped page", false, base + mem.PageSize - 64, 64 + 2*mem.PageSize, 64, 2, 1, "DMA fault"},
		{"unmapped first page", false, base + 3*mem.PageSize, 256, 0, 1, 1, "DMA fault"},
		{"zero bytes", false, base, 0, 0, 0, 0, ""},
		{"passthrough past the end of RAM", true, ramEnd + 8, 256, 0, 1, 0, "out of RAM bounds"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var units [2]*IOMMU
			for i := range units {
				u, m := newTestIOMMU(t)
				u.AttachDevice(1).Passthrough = c.passthrough
				if !c.passthrough {
					for _, page := range []IOVA{0, 2} {
						if err := u.Map(1, base+page*mem.PageSize, allocPA(t, m, 0), mem.PageSize, PermRead); err != nil {
							t.Fatal(err)
						}
					}
				}
				units[i] = u
			}
			read, touch := units[0], units[1]
			nr, errR := read.DMARead(1, c.iova, make([]byte, c.n))
			nt, errT := touch.DMATouch(1, c.iova, c.n)
			if nr != nt || fmt.Sprint(errR) != fmt.Sprint(errT) {
				t.Fatalf("DMARead = %d, %v; DMATouch = %d, %v", nr, errR, nt, errT)
			}
			if nt != c.done || (errT == nil) != (c.errText == "") || (errT != nil && !strings.Contains(errT.Error(), c.errText)) {
				t.Fatalf("read %d bytes, err %v; want %d and an error containing %q", nt, errT, c.done, c.errText)
			}
			type counts struct {
				translations, hits, misses, blocked uint64
				records                             []FaultRecord
			}
			snap := func(u *IOMMU) counts {
				return counts{u.Translations, u.TLB().Hits, u.TLB().Misses, u.BlockedDMAs, u.ReadFaultRecords()}
			}
			r, w := snap(read), snap(touch)
			if !reflect.DeepEqual(r, w) {
				t.Fatalf("DMARead left %+v, DMATouch %+v", r, w)
			}
			if w.translations != uint64(c.translations) || w.blocked != c.blocked || len(w.records) != int(c.blocked) {
				t.Fatalf("%d translations, %d blocked, %d fault records; want %d, %d, %d",
					w.translations, w.blocked, len(w.records), c.translations, c.blocked, c.blocked)
			}
		})
	}
}
