package mem

import (
	"math/bits"
	"sync"
)

// Backing pool: machines are built and discarded by the dozen per
// experiment run, and the dominant host cost of each construction is the
// Go runtime zeroing the (hundreds of MiB, mostly never touched) data
// array. Release parks the array here with its zero map, and the next New
// of the same size scrubs only the frames the map has marked. A recycled
// backing is therefore byte-for-byte indistinguishable from a fresh
// make([]byte, n) — reuse is a host-side optimisation with no simulated
// effect.

// backingBudget bounds the pool's total held bytes (host memory only);
// beyond it, released arrays are simply dropped for the GC.
const backingBudget = 4 << 30

var backingPool struct {
	mu    sync.Mutex
	free  map[int][]backing // keyed by len(data)
	bytes int
}

type backing struct {
	data  []byte
	dirty zeroMap
}

// takeBacking returns a zeroed data array of the given size plus its
// cleared zero map, recycling a pooled pair when one fits.
func takeBacking(size int) ([]byte, zeroMap) {
	backingPool.mu.Lock()
	list := backingPool.free[size]
	if n := len(list); n > 0 {
		b := list[n-1]
		list[n-1] = backing{}
		backingPool.free[size] = list[:n-1]
		backingPool.bytes -= size
		backingPool.mu.Unlock()
		scrub(b)
		return b.data, b.dirty
	}
	backingPool.mu.Unlock()
	return make([]byte, size), newZeroMap(size >> PageShift)
}

// scrub clears exactly the frames the zero map has marked and clears the
// map.
func scrub(b backing) {
	for wi, w := range b.dirty {
		for ; w != 0; w &= w - 1 {
			lo := (wi*64 + bits.TrailingZeros64(w)) << PageShift
			clear(b.data[lo : lo+PageSize])
		}
	}
	clear(b.dirty)
}

// Release parks the data array in the backing pool for the next Memory of
// the same size. The Memory must not be used afterwards: any surviving
// accessor panics on the nil data array, so a use-after-release is loud.
// Release is optional — an un-released Memory is simply collected by the
// GC — and idempotent.
func (m *Memory) Release() {
	if m.data == nil {
		return
	}
	data, dirty := m.data, m.dirty
	m.data, m.dirty = nil, nil
	backingPool.mu.Lock()
	defer backingPool.mu.Unlock()
	if backingPool.bytes+len(data) > backingBudget {
		return
	}
	if backingPool.free == nil {
		backingPool.free = make(map[int][]backing)
	}
	backingPool.free[len(data)] = append(backingPool.free[len(data)], backing{data, dirty})
	backingPool.bytes += len(data)
}
