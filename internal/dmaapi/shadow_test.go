package dmaapi

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/asplos18/damn/internal/mem"
)

// fillStale writes a non-zero pattern over [pa, pa+n).
func fillStale(ma *machine, pa mem.PhysAddr, n int, seed byte) {
	b := make([]byte, n)
	for i := range b {
		b[i] = (seed + byte(i%251)) | 1
	}
	ma.mem.Write(pa, b)
}

func newShadowEngine(t *testing.T) (*machine, *ShadowScheme, *Engine) {
	t.Helper()
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	sh := NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
	return ma, sh, NewEngine(ma.se, ma.mem, ma.iommu, ma.model, sh)
}

// TestShadowUnmapCopiesWholeBuffer pins the RX copy-back: after
// Unmap(FromDevice) the caller's buffer equals the shadow buffer over
// [0, size), whatever the device wrote and whatever the caller's buffer
// held before. The device writes a header into a fresh shadow, then the
// whole buffer, then a header into the recycled shadow that still holds
// the whole write; every caller buffer starts with a stale non-zero tail.
func TestShadowUnmapCopiesWholeBuffer(t *testing.T) {
	for _, geo := range []struct {
		name   string
		offset int // caller buffer's offset into its 64 KiB block
		size   int
	}{{"aligned-64k", 0, 64 << 10}, {"unaligned", 100, 60000}} {
		t.Run(geo.name, func(t *testing.T) {
			ma, sh, e := newShadowEngine(t)
			header := []byte("device-written header")
			full := make([]byte, geo.size)
			rand.New(rand.NewSource(1)).Read(full)
			for i, wrote := range [][]byte{header, full, header} {
				pa := ma.allocBuf(t, 4) + mem.PhysAddr(geo.offset)
				fillStale(ma, pa, geo.size, byte(i))
				v, err := e.Map(nil, dev, pa, geo.size, FromDevice)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ma.iommu.DMAWrite(dev, v, wrote); err != nil {
					t.Fatal(err)
				}
				shadowPA := sh.bufs[sh.bufAt(v)].pa
				if err := e.Unmap(nil, dev, v, geo.size, FromDevice); err != nil {
					t.Fatal(err)
				}
				want := make([]byte, geo.size)
				ma.mem.Read(shadowPA, want)
				got := make([]byte, geo.size)
				ma.mem.Read(pa, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d (device wrote %d bytes): caller buffer differs from the shadow buffer", i, len(wrote))
				}
				if !bytes.Equal(got[:len(wrote)], wrote) {
					t.Fatalf("round %d: caller buffer does not start with the device's bytes", i)
				}
			}
			if sh.PoolGrowths != 1 {
				t.Fatalf("PoolGrowths = %d, want 1: later rounds must reuse the shadow buffer", sh.PoolGrowths)
			}
		})
	}
}

// TestShadowMapOverwritesStaleShadow pins the TX staging copy: a shadow
// buffer that held a whole random payload must, after the next
// Map(ToDevice), hold exactly the new caller's bytes — a header and zeros.
func TestShadowMapOverwritesStaleShadow(t *testing.T) {
	ma, sh, e := newShadowEngine(t)
	const size = 64 << 10
	first := ma.allocBuf(t, 4)
	full := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(full)
	ma.mem.Write(first, full)
	v, err := e.Map(nil, dev, first, size, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(nil, dev, v, size, ToDevice); err != nil {
		t.Fatal(err)
	}

	second := ma.allocBuf(t, 4)
	ma.mem.Write(second, []byte("caller header"))
	v, err = e.Map(nil, dev, second, size, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if sh.PoolGrowths != 1 {
		t.Fatalf("PoolGrowths = %d, want 1: the second map must reuse the stale shadow", sh.PoolGrowths)
	}
	got := make([]byte, size)
	if _, err := ma.iommu.DMARead(dev, v, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	ma.mem.Read(second, want)
	if !bytes.Equal(got, want) {
		t.Fatal("shadow buffer does not hold exactly the caller's bytes after Map(ToDevice)")
	}
}
