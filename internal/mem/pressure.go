package mem

// Shrinker support — the interface §5.4 of the paper points at ("modern
// OSes provide a standard interface for the OS to request a cache to
// release memory back to the system if memory pressure occurs", citing the
// Linux shrinker). Subsystems that cache pages (DAMN's DMA caches, most
// prominently) register a callback; when the buddy allocator cannot satisfy
// a request, the shrinkers run and the allocation retries.

// ShrinkFunc releases cached memory and returns the number of pages freed.
type ShrinkFunc func() int64

// RegisterShrinker adds a reclaim callback.
func (m *Memory) RegisterShrinker(fn ShrinkFunc) {
	m.shrinkers = append(m.shrinkers, fn)
}

// reclaim runs every shrinker and reports the pages released.
func (m *Memory) reclaim() int64 {
	var total int64
	for _, fn := range m.shrinkers {
		total += fn()
	}
	m.reclaimRuns++
	m.reclaimedPages += total
	return total
}

// ReclaimRuns reports how many times memory pressure invoked the shrinkers.
func (m *Memory) ReclaimRuns() int64 { return m.reclaimRuns }

// ReclaimedPages reports the cumulative pages released under pressure.
func (m *Memory) ReclaimedPages() int64 { return m.reclaimedPages }
