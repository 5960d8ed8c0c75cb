package damn

import "github.com/asplos18/damn/internal/sim"

// magazine is an M-element LIFO stack of free chunks (Bonwick & Adams,
// USENIX ATC'01, as adopted by §5.4). Being per-core, push/pop need no
// synchronisation.
type magazine struct {
	chunks []*chunk
	cap    int
}

func newMagazine(m int) *magazine { return &magazine{chunks: make([]*chunk, 0, m), cap: m} }

func (m *magazine) empty() bool { return m == nil || len(m.chunks) == 0 }
func (m *magazine) full() bool  { return m != nil && len(m.chunks) == m.cap }

func (m *magazine) pop() *chunk {
	ch := m.chunks[len(m.chunks)-1]
	m.chunks = m.chunks[:len(m.chunks)-1]
	return ch
}

func (m *magazine) push(ch *chunk) { m.chunks = append(m.chunks, ch) }

// depot is the shared second-level store: full and empty magazines behind a
// lock, whose cost chargeLock bills to the simulated core. Cores only come
// here when both their magazines are exhausted (or both full), so the lock
// is off the fast path — the property that makes magazines scale (§5.4).
type depot struct {
	m int // the current (possibly grown) magazine capacity

	full  []*magazine
	empty []*magazine

	// Exchanges counts depot round trips (tests assert the fast path).
	Exchanges uint64

	// Adaptive magazine sizing (Bonwick §4.2: "the actual magazine
	// replenishment policy is more sophisticated"): when cores hit the
	// depot too often, newly created magazines grow, raising the number
	// of operations a core can satisfy without the shared lock.
	// sinceGrow counts exchanges since the last growth step.
	sinceGrow int
}

// Magazine-size adaptation parameters.
const (
	// magGrowThreshold is the depot-exchange count that triggers growth.
	magGrowThreshold = 64
	// magMaxSize caps adaptive growth.
	magMaxSize = 64
)

// adapt is called on every exchange; it enlarges the magazine size when the
// depot is hit frequently.
func (dp *depot) adapt() {
	dp.sinceGrow++
	if dp.sinceGrow >= magGrowThreshold && dp.m < magMaxSize {
		dp.m *= 2
		if dp.m > magMaxSize {
			dp.m = magMaxSize
		}
		dp.sinceGrow = 0
	}
}

const depotLockHoldCycles = 220

// chargeLock bills the depot lock acquisition. The depot is off the fast
// path (cores come here only when both their magazines are exhausted), so
// contention is negligible and the lock is billed as a fixed cost.
func (dp *depot) chargeLock(x Ctx) {
	if task, ok := x.C.(*sim.Task); ok && task != nil {
		task.Charge(depotLockHoldCycles)
	}
}

// exchangeForFull hands the depot an empty magazine (may be nil) and
// returns a full one, or nil if the depot has none cached.
func (dp *depot) exchangeForFull(x Ctx, give *magazine) *magazine {
	dp.chargeLock(x)
	dp.Exchanges++
	dp.adapt()
	if len(dp.full) == 0 {
		return nil
	}
	fullMag := dp.full[len(dp.full)-1]
	dp.full = dp.full[:len(dp.full)-1]
	if give != nil {
		dp.empty = append(dp.empty, give)
	}
	return fullMag
}

// exchangeForEmpty hands the depot a full magazine and returns an empty one.
func (dp *depot) exchangeForEmpty(x Ctx, give *magazine) *magazine {
	dp.chargeLock(x)
	dp.Exchanges++
	dp.adapt()
	dp.full = append(dp.full, give)
	if n := len(dp.empty); n > 0 {
		m := dp.empty[n-1]
		dp.empty = dp.empty[:n-1]
		return m
	}
	return newMagazine(dp.m)
}

// drainFull removes and returns all chunks cached in the depot's full
// magazines (shrinker path).
func (dp *depot) drainFull() []*chunk {
	var out []*chunk
	for _, m := range dp.full {
		out = append(out, m.chunks...)
		m.chunks = m.chunks[:0]
		dp.empty = append(dp.empty, m)
	}
	dp.full = nil
	return out
}
