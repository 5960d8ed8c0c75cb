package iommu

import (
	"bytes"
	"errors"
	"testing"

	"github.com/asplos18/damn/internal/mem"
)

// hostileMapping is one mapping of the fuzz fixture. strict ones are
// unmapped, and their IOTLB entries invalidated, between the two rounds.
type hostileMapping struct {
	dev    int
	iova   IOVA
	size   int
	perm   Perm
	pa     mem.PhysAddr
	strict bool
}

const (
	hostileBase = IOVA(0x10000)
	hostileHuge = IOVA(0x4000_0000)
	hostileTop  = maxIOVA &^ IOVA(mem.PageMask)
)

// hostileFixture maps devices 1 and 2 of a fresh IOMMU. Device 1 holds
// 4 KiB pages of every permission around a hole, a 2 MiB page with a
// read-only 4 KiB page below it and a writable one above it, and the top
// and bottom pages of the domain, where a span wrapping past 2^64 lands;
// device 2 maps its own frame at device 1's first IOVA. Every frame of RAM starts filled with a byte of its own, so a read
// shows which frame it came from.
func hostileFixture(t *testing.T) (*IOMMU, *mem.Memory, []hostileMapping) {
	m, err := mem.New(mem.Config{TotalBytes: 8 << 20, NUMANodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	u := New(m)
	u.AttachDevice(1)
	u.AttachDevice(2)
	frame := func(order int) mem.PhysAddr {
		p, err := m.AllocPages(order, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p.PFN().Addr()
	}
	page := IOVA(mem.PageSize)
	maps := []hostileMapping{
		{1, hostileBase, mem.PageSize, PermRW, frame(0), true},
		{1, hostileBase + page, mem.PageSize, PermRead, frame(0), false},
		{1, hostileBase + 2*page, mem.PageSize, PermWrite, frame(0), false},
		{1, hostileBase + 4*page, mem.PageSize, PermRW, frame(0), false},
		{1, hostileHuge - page, mem.PageSize, PermRead, frame(0), false},
		{1, hostileHuge, mem.HugePageSize, PermRW, frame(9), true},
		{1, hostileHuge + mem.HugePageSize, mem.PageSize, PermRW, frame(0), false},
		{1, hostileTop, mem.PageSize, PermRW, frame(0), false},
		{1, 0, mem.PageSize, PermRW, frame(0), false},
		{2, hostileBase, mem.PageSize, PermRW, frame(0), false},
	}
	for _, hm := range maps {
		if hm.size == mem.HugePageSize {
			err = u.MapHuge(hm.dev, hm.iova, hm.pa, hm.perm)
		} else {
			err = u.Map(hm.dev, hm.iova, hm.pa, hm.size, hm.perm)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ram := m.Bytes(0, m.NumPages()*mem.PageSize)
	for pfn := 0; pfn < m.NumPages(); pfn++ {
		f := ram[pfn*mem.PageSize : (pfn+1)*mem.PageSize]
		for i := range f {
			f[i] = byte(pfn)
		}
	}
	return u, m, maps
}

// allowed returns where dev's access to va lands, if a mapping live in
// this round grants need.
func allowed(maps []hostileMapping, round, dev int, va IOVA, need Perm) (mem.PhysAddr, bool) {
	for _, hm := range maps {
		if hm.dev == dev && va >= hm.iova && va-hm.iova < IOVA(hm.size) && hm.perm&need != 0 && !(round == 1 && hm.strict) {
			return hm.pa + mem.PhysAddr(va-hm.iova), true
		}
	}
	return 0, false
}

// FuzzDMAHostileIOVA hands the IOMMU device DMAs a hostile device could
// issue: any device id, any 64-bit IOVA, up to 64 KiB, either direction.
// Each runs twice against a domain holding 4 KiB and 2 MiB mappings:
// before, and after a strict-style unmap (unmap, then a drained range
// invalidation) of one page of each size. A DMA must not panic; it must
// move exactly the bytes the live mappings grant the device at those
// IOVAs, page chunk by page chunk, and stop at the first page they do not
// grant, with a fault; RAM outside the granted chunks must not change. A
// refused DMA, and every refused page of the same span walked by
// TranslateSpan, raises BlockedDMAs and leaves a fault record naming the
// device and the page's address. An IOVA past the 48-bit domain width,
// whatever its low bits, is never granted.
//
// testdata/fuzz/FuzzDMAHostileIOVA holds the inputs that motivated it: an
// alias 2^48 above a mapped page, DMAs from the top page of the domain and
// at 2^64−1, unaligned transfers across each edge of the 2 MiB page, a
// write to a read-only page, another device's frame, a hole and a device
// that is not attached. `go test` replays them and
// `go test -fuzz FuzzDMAHostileIOVA` explores from them.
func FuzzDMAHostileIOVA(f *testing.F) {
	f.Fuzz(func(t *testing.T, dev uint8, iova uint64, n uint16, write bool) {
		u, m, maps := hostileFixture(t)
		need := permFor(write)
		for round := 0; round < 2; round++ {
			if round == 1 {
				for _, hm := range maps {
					if !hm.strict {
						continue
					}
					var err error
					if hm.size == mem.HugePageSize {
						err = u.UnmapHuge(hm.dev, hm.iova)
					} else {
						err = u.Unmap(hm.dev, hm.iova, hm.size)
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := u.InvQ().Invalidate(nil, 0, Command{Kind: InvRange, Dev: hm.dev, Base: hm.iova, Size: hm.size}); err != nil {
						t.Fatal(err)
					}
				}
			}
			hostileDMA(t, u, m, maps, round, int(dev), IOVA(iova), int(n), write, need)
			hostileSpan(t, u, maps, round, int(dev), IOVA(iova), int(n), write, need)
		}
	})
}

// hostileDMA runs one DMA and checks it against the mappings live in the
// round.
func hostileDMA(t *testing.T, u *IOMMU, m *mem.Memory, maps []hostileMapping, round, dev int, iova IOVA, n int, write bool, need Perm) {
	t.Helper()
	ram := m.Bytes(0, m.NumPages()*mem.PageSize)
	want := bytes.Clone(ram)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = 0xE0 | byte(i)&0xF
	}
	exp := bytes.Clone(buf)
	// The transfer the mappings grant: chunk by chunk to each page
	// boundary, up to the first chunk they refuse.
	granted, refused := 0, IOVA(0)
	for granted < n {
		va := iova + IOVA(granted)
		chunk := min(mem.PageSize-int(va&IOVA(mem.PageMask)), n-granted)
		pa, ok := allowed(maps, round, dev, va, need)
		if !ok || va < iova || va > maxIOVA {
			refused = va
			break
		}
		if write {
			copy(want[pa:int(pa)+chunk], buf[granted:granted+chunk])
		} else {
			copy(exp[granted:granted+chunk], ram[pa:int(pa)+chunk])
		}
		granted += chunk
	}
	blocked, recorded := u.BlockedDMAs, len(u.ReadFaultRecords())
	var done int
	var err error
	if write {
		done, err = u.DMAWrite(dev, iova, buf)
	} else {
		done, err = u.DMARead(dev, iova, buf)
	}
	if recorded != 0 {
		t.Fatalf("round %d: %d fault records were pending before the DMA", round, recorded)
	}
	if done != granted {
		t.Fatalf("round %d: DMA(dev %d, %#x, %d, write %v) moved %d bytes (%v); the mappings grant %d",
			round, dev, iova, n, write, done, err, granted)
	}
	recs := u.ReadFaultRecords()
	if granted < n {
		var f Fault
		if !errors.As(err, &f) || f.Addr != refused || f.Dev != dev {
			t.Fatalf("round %d: DMA(dev %d, %#x, %d) stopped with %v, want a fault at %#x", round, dev, iova, n, err, refused)
		}
		if u.BlockedDMAs != blocked+1 || len(recs) != 1 || recs[0].Fault != f {
			t.Fatalf("round %d: refused DMA left %d blocked (from %d) and records %+v", round, u.BlockedDMAs, blocked, recs)
		}
	} else if err != nil || u.BlockedDMAs != blocked || len(recs) != 0 {
		t.Fatalf("round %d: granted DMA returned %v, %d blocked (from %d), records %+v", round, err, u.BlockedDMAs, blocked, recs)
	}
	if !bytes.Equal(ram, want) {
		for i := range ram {
			if ram[i] != want[i] {
				t.Fatalf("round %d: DMA(dev %d, %#x, %d, write %v) changed RAM at %#x", round, dev, iova, n, write, i)
			}
		}
	}
	if !write && !bytes.Equal(buf, exp) {
		t.Fatalf("round %d: DMARead(dev %d, %#x, %d) read bytes the mappings do not grant", round, dev, iova, n)
	}
}

// hostileSpan walks the span a device touches for the same transfer and
// checks that every page the mappings refuse, and only those, faults.
func hostileSpan(t *testing.T, u *IOMMU, maps []hostileMapping, round, dev int, iova IOVA, n int, write bool, need Perm) {
	t.Helper()
	var refused []IOVA
	for off := 0; off < n; off += mem.PageSize {
		va := iova + IOVA(off)
		if _, ok := allowed(maps, round, dev, va, need); !ok || va < iova || va > maxIOVA {
			refused = append(refused, va)
		}
	}
	blocked := u.BlockedDMAs
	err := u.TranslateSpan(dev, iova, n, write)
	recs := u.ReadFaultRecords()
	if (err != nil) != (len(refused) > 0) || u.BlockedDMAs-blocked != uint64(len(refused)) || len(recs) != len(refused) {
		t.Fatalf("round %d: TranslateSpan(dev %d, %#x, %d) = %v with %d blocked and %d records; the mappings refuse %#x",
			round, dev, iova, n, err, u.BlockedDMAs-blocked, len(recs), refused)
	}
	for i, r := range recs {
		if r.Dev != dev || r.Addr != refused[i] || r.Injected {
			t.Fatalf("round %d: span fault record %d is %+v, want dev %d at %#x", round, i, r, dev, refused[i])
		}
	}
}
