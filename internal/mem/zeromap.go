package mem

// zeroMap is the host-side zero map of one Memory: one bit per 4 KiB
// frame, and a clear bit means every byte of the frame is zero. A set bit
// only means the frame may hold non-zero bytes. Bytes and Write set bits;
// Zero and Copy clear the bit of a frame they leave wholly zero; Read
// touches none. The map lets Zero and Copy skip frames they know are zero
// and lets the backing pool scrub only set frames on reuse. It has no
// simulated meaning: every cycle and counter is charged for the full
// length whatever the map lets the host skip.
type zeroMap []uint64

func newZeroMap(frames int) zeroMap { return make(zeroMap, (frames+63)/64) }

// has reports whether frame f may hold non-zero bytes.
func (z zeroMap) has(f uint64) bool { return z[f>>6]&(1<<(f&63)) != 0 }

// mark records that frames f0 through f1 may hold non-zero bytes.
func (z zeroMap) mark(f0, f1 uint64) {
	for w := f0 >> 6; w <= f1>>6; w++ {
		mask := ^uint64(0)
		if w == f0>>6 {
			mask <<= f0 & 63
		}
		if w == f1>>6 {
			mask &= ^uint64(0) >> (63 - f1&63)
		}
		z[w] |= mask
	}
}

// unmark records that frame f is all zero.
func (z zeroMap) unmark(f uint64) { z[f>>6] &^= 1 << (f & 63) }
