package iommu

import (
	"errors"
	"math"
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

func TestIOTLBEviction(t *testing.T) {
	tlb := NewIOTLB(IOTLBConfig{Sets: 2, Ways: 2}) // 4 entries
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

func TestIOTLBInvalidateAll(t *testing.T) {
	tlb := NewIOTLB(DefaultIOTLBConfig())
	tlb.insert(1, 0x1000, false, 1, PermRW)
	tlb.insert(2, 0x2000, false, 2, PermRW)
	tlb.InvalidateAll()
	if _, ok := tlb.lookup(1, 0x1000); ok {
		t.Fatal("entries should be gone")
	}
	if _, ok := tlb.lookup(2, 0x2000); ok {
		t.Fatal("entries should be gone")
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
	if u.EverMappedPages(1) != 5 {
		t.Fatalf("EverMappedPages = %d, want 5", u.EverMappedPages(1))
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
	if got := u.TLB().HitRate(); got < 0.6 || got > 0.7 {
		t.Fatalf("HitRate = %f, want 2/3", got)
	}
}

// TestAttachDeviceIDFitsTLBTag: IOTLB entries tag their device with an
// int32, so AttachDevice refuses an id that would alias another device's.
func TestAttachDeviceIDFitsTLBTag(t *testing.T) {
	if got := unsafe.Sizeof(tlbEntry{}); got != 32 {
		t.Errorf("tlbEntry is %d bytes, want 32", got)
	}
	u, _ := newTestIOMMU(t)
	wide := math.MaxInt32
	wide++
	for _, dev := range []int{-1, wide} {
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
