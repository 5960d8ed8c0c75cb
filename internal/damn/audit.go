package damn

import (
	"fmt"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
)

// Audit checks the chunk-conservation invariants that must hold at every
// quiescent point, whatever interleaving of Alloc/Free/Shrink (and injected
// faults) got us here:
//
//   - the registry holds exactly ChunksCreated-ChunksReleased live chunks;
//   - no two live chunks overlap (no duplication of pages or IOVAs);
//   - free registry slots and live slots partition the registry;
//   - FootprintBytes matches the live-chunk count exactly.
//
// It returns the number of live chunks and the first violated invariant, if
// any. The property tests run it between operation bursts, and the chaos
// harness runs it after every faulted workload: graceful degradation means
// dropping packets, never losing or double-owning chunks.
func (d *DAMN) Audit() (live int, err error) {
	seenPA := map[mem.PhysAddr]bool{}
	seenIOVA := map[iommu.IOVA]bool{}
	for i := range d.regUsed {
		ch := d.registry[i]
		if ch == nil {
			continue
		}
		live++
		if ch.regIdx != i+1 {
			return live, fmt.Errorf("damn: registry[%d] holds chunk with regIdx %d", i, ch.regIdx)
		}
		if seenPA[ch.pa] {
			return live, fmt.Errorf("damn: chunk at %#x registered twice", ch.pa)
		}
		seenPA[ch.pa] = true
		if !ch.huge && seenIOVA[ch.iova] {
			return live, fmt.Errorf("damn: IOVA %#x registered twice", ch.iova)
		}
		seenIOVA[ch.iova] = true
	}
	for _, slot := range d.freeSlots {
		if d.registry[slot] != nil {
			return live, fmt.Errorf("damn: free slot %d still holds a chunk", slot)
		}
	}
	if len(d.freeSlots) != d.regUsed-live {
		return live, fmt.Errorf("damn: slot accounting broken: %d free + %d live != %d total",
			len(d.freeSlots), live, d.regUsed)
	}
	if got, want := d.ChunksCreated-d.ChunksReleased, uint64(live); got != want {
		return live, fmt.Errorf("damn: created-released = %d but %d chunks live", got, want)
	}
	if got, want := d.footprint, int64(live)*int64(d.ChunkBytes()); got != want {
		return live, fmt.Errorf("damn: footprint %d bytes, want %d for %d live chunks", got, want, live)
	}
	return live, nil
}
