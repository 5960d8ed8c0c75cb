package dmaapi

import (
	"testing"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
)

// FuzzUnmapHostileIOVA hands dma_unmap (iova, size) pairs a buggy or
// hostile driver could pass, for instance an address read back from a
// descriptor the device rewrote: below the API space, at or above its top,
// in the DAMN half, unaligned, inside a live mapping but not at its base,
// already unmapped, and naming the wrong device. target picks an anchor
// address, delta moves off it, and other names the mappings' neighbour
// device. Under strict, deferred and shadow, the call must unmap exactly
// the live mapping it names, for its device and with a size that fits, or
// fail and change nothing.
// Strict and deferred name a mapping by any address in its first page (as
// Linux's iommu-dma unmaps by page), shadow only by the address Map
// returned. Afterwards the real mappings must still unmap cleanly,
// MappedPages must never go negative, and strict and deferred must end with
// every page unmapped and every IOVA free.
//
// testdata/fuzz/FuzzUnmapHostileIOVA holds one input per case above;
// `go test` replays them and `go test -fuzz FuzzUnmapHostileIOVA` explores
// from them.
func FuzzUnmapHostileIOVA(f *testing.F) {
	damnIOVA, err := iova.Encode(0, iommu.PermWrite, dev, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, target uint8, delta int64, size int64, other bool) {
		for _, scheme := range []string{"strict", "deferred", "shadow"} {
			unmapHostile(t, scheme, damnIOVA, target, delta, int(size), other)
		}
	})
}

type fuzzMapping struct {
	v    iommu.IOVA
	size int
	live bool
}

func unmapHostile(t *testing.T, scheme string, damnIOVA iommu.IOVA, target uint8, delta int64, size int, other bool) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	ma.iommu.AttachDevice(dev + 1)
	udev := dev
	if other {
		udev = dev + 1
	}
	var s Scheme
	var alloc *iova.Allocator
	var deferred *DeferredScheme
	var shadow *ShadowScheme
	switch scheme {
	case "strict":
		st := NewStrictScheme(ma.iommu, ma.model)
		s, alloc = st, st.alloc
	case "deferred":
		deferred = NewDeferredScheme(ma.se, ma.iommu, ma.model)
		s, alloc = deferred, deferred.alloc
	default:
		shadow = NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
		s = shadow
	}
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, s)
	var maps []fuzzMapping
	for _, sz := range []int{mem.PageSize, 3 * mem.PageSize, FrameBytes, 64 << 10, 2 * mem.PageSize} {
		v, err := e.Map(nil, dev, ma.allocBuf(t, 4), sz, FromDevice)
		if err != nil {
			t.Fatalf("%s: map %d bytes: %v", scheme, sz, err)
		}
		maps = append(maps, fuzzMapping{v: v, size: sz, live: true})
	}
	last := &maps[len(maps)-1]
	if err := e.Unmap(nil, dev, last.v, last.size, FromDevice); err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	last.live = false

	anchors := []iommu.IOVA{0, iova.APISpaceLo, iova.APISpaceHi, damnIOVA, 1 << 48}
	for _, m := range maps {
		anchors = append(anchors, m.v)
	}
	v := anchors[int(target)%len(anchors)] + iommu.IOVA(delta)
	want := -1
	for i, m := range maps {
		if !m.live || size <= 0 || other {
			continue
		}
		if shadow != nil && v == m.v && size <= m.size ||
			shadow == nil && v&^mem.PageMask == m.v && size <= (m.size+mem.PageMask)&^mem.PageMask-int(v&mem.PageMask) {
			want = i
		}
	}
	// Twice: a call that unmapped a mapping must fail the second time.
	for call := 0; call < 2; call++ {
		before := ma.iommu.MappedPages(dev)
		err := e.Unmap(nil, udev, v, size, FromDevice)
		switch {
		case want >= 0 && err != nil:
			t.Fatalf("%s: unmap(%#x, %d) of a live mapping failed: %v", scheme, v, size, err)
		case want >= 0:
			maps[want].live = false
			want = -1
		case err == nil:
			t.Fatalf("%s: unmap(dev %d, %#x, %d) names no live mapping, yet succeeded", scheme, udev, v, size)
		case ma.iommu.MappedPages(dev) != before:
			t.Fatalf("%s: failed unmap(%#x, %d) moved MappedPages %d -> %d", scheme, v, size, before, ma.iommu.MappedPages(dev))
		}
		if n := ma.iommu.MappedPages(dev); n < 0 {
			t.Fatalf("%s: MappedPages = %d after unmap(%#x, %d)", scheme, n, v, size)
		}
	}

	for _, m := range maps {
		if !m.live {
			continue
		}
		if err := e.Unmap(nil, dev, m.v, m.size, FromDevice); err != nil {
			t.Fatalf("%s: real mapping %#x+%d no longer unmaps after unmap(%#x, %d): %v", scheme, m.v, m.size, v, size, err)
		}
	}
	n := ma.iommu.MappedPages(dev)
	if shadow != nil {
		if want := shadow.PoolBytes / mem.PageSize; n != want {
			t.Fatalf("shadow: MappedPages = %d, want the pool's %d", n, want)
		}
		return
	}
	if deferred != nil {
		deferred.Flush(nil)
	}
	if n != 0 {
		t.Fatalf("%s: %d pages still mapped after every mapping was unmapped", scheme, n)
	}
	if free := alloc.FreeBytes(); free != uint64(iova.APISpaceHi-iova.APISpaceLo) {
		t.Fatalf("%s: %#x IOVA bytes free after every mapping was unmapped, want the whole space", scheme, free)
	}
}
