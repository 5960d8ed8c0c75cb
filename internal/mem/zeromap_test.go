package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// checkZeroMap fails unless every frame the zero map records as zero reads
// all zero.
func checkZeroMap(t *testing.T, m *Memory, context string) {
	t.Helper()
	var zero [PageSize]byte
	for f := 0; f < m.NumPages(); f++ {
		if !m.dirty.has(uint64(f)) && !bytes.Equal(m.data[f<<PageShift:(f+1)<<PageShift], zero[:]) {
			t.Fatalf("%s: frame %d is unmarked but not zero", context, f)
		}
	}
}

// randomRange picks a range of up to three frames: unaligned and
// frame-straddling two times in three, whole frames otherwise, so both
// the partial and the full-frame paths of Zero and Copy run.
func randomRange(rng *rand.Rand, size int) (PhysAddr, int) {
	if rng.Intn(3) == 0 {
		frames := size >> PageShift
		k := 1 + rng.Intn(3)
		f := rng.Intn(frames - k + 1)
		return PhysAddr(f << PageShift), k << PageShift
	}
	pa := rng.Intn(size)
	n := rng.Intn(3*PageSize + 1)
	return PhysAddr(pa), min(n, size-pa)
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestZeroMapMatchesReference drives random Write, Bytes-then-write, Zero,
// Copy, Read and Release-then-New sequences against a plain byte slice.
// After every op the contents must match the reference and every frame the
// zero map records as zero must read zero.
func TestZeroMapMatchesReference(t *testing.T) {
	const size = 72 << PageShift // two zero-map words, the second partly used
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newTestMemory(t, size, 1)
			ref := make([]byte, size)
			for step := 0; step < 500; step++ {
				pa, n := randomRange(rng, size)
				var op string
				switch rng.Intn(6) {
				case 0:
					op = "Write"
					src := randomBytes(rng, n)
					m.Write(pa, src)
					copy(ref[pa:], src)
				case 1:
					op = "Bytes"
					src := randomBytes(rng, n)
					copy(m.Bytes(pa, n), src)
					copy(ref[pa:], src)
				case 2:
					op = "Zero"
					m.Zero(pa, n)
					clear(ref[pa : int(pa)+n])
				case 3:
					op = "Copy"
					src, _ := randomRange(rng, size)
					n = min(n, size-int(src))
					m.Copy(pa, src, n)
					copy(ref[pa:int(pa)+n], ref[src:int(src)+n])
				case 4:
					op = "Read"
					got := make([]byte, n)
					m.Read(pa, got)
					if !bytes.Equal(got, ref[pa:int(pa)+n]) {
						t.Fatalf("step %d: Read(%#x, %d) differs from the reference", step, pa, n)
					}
				case 5:
					op = "Release+New"
					old := &m.data[0]
					m.Release()
					m = newTestMemory(t, size, 1)
					if &m.data[0] != old {
						t.Fatalf("step %d: New did not reuse the released backing", step)
					}
					clear(ref)
				}
				ctx := fmt.Sprintf("step %d: %s(%#x, %d)", step, op, pa, n)
				if !bytes.Equal(m.data, ref) {
					t.Fatalf("%s: memory differs from the reference", ctx)
				}
				checkZeroMap(t, m, ctx)
			}
			m.Release()
		})
	}
}
