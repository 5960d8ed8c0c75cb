package damn

import (
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/perf"
)

// Shrink implements the OS shrinker interface the paper describes (§5.4
// "Responding to OS memory pressure"): under memory pressure, DAMN releases
// chunks that sit unused in magazines and the depot back to the page
// allocator. Such chunks contain no live buffers, so releasing them is
// safe; their IOMMU mappings are destroyed (and the IOTLB invalidated —
// otherwise the device could keep writing into pages the kernel reuses) and
// their identity-region IOVA slots are recycled.
//
// Chunks carved from dense huge superblocks are skipped: their 2 MiB
// mapping is shared with sibling chunks.
//
// Returns the number of pages released to the system.
func (d *DAMN) Shrink(x Ctx) int64 {
	// Release order is simulation-visible (unmaps and IOTLB invalidations
	// are charged work): the caches go in index order, sorted by key.
	var released int64
	for _, c := range d.caches {
		if c == nil {
			continue
		}
		var victims []*chunk
		// Depot first: those chunks are coldest.
		victims = append(victims, c.depot.drainFull()...)
		// Then the per-core magazines.
		for cpu := range c.perCPU {
			for ctx := 0; ctx < 2; ctx++ {
				cc := c.perCPU[cpu][ctx]
				for _, m := range []*magazine{cc.loaded, cc.previous} {
					if m == nil {
						continue
					}
					victims = append(victims, m.chunks...)
					m.chunks = m.chunks[:0]
				}
			}
		}
		for _, ch := range victims {
			if ch.huge {
				// Cannot unmap a shared huge mapping; keep the
				// chunk cached instead.
				c.putChunk(x, ch)
				continue
			}
			released += d.releaseChunk(x, c, ch)
		}
	}
	d.shrinkRunsC.Inc()
	if released > 0 {
		d.shrinkPagesC.Add(uint64(released))
	}
	return released
}

// releaseChunk tears one chunk down completely, charging the caller for the
// unmap work and the synchronous IOTLB invalidation wait — the same costs the
// NoDMACache ablation pays on every free. Reclaim is not free; it only
// happens off the fast path.
func (d *DAMN) releaseChunk(x Ctx, c *dmaCache, ch *chunk) int64 {
	if !d.iommu.Attached(c.key.dev) {
		// The domain is already gone (device quarantined):
		// there is nothing to unmap or invalidate — the teardown and the
		// domain-wide invalidation happen in the recovery path. Reclaim
		// the pages and metadata only.
		return d.releaseDeadChunk(x, c, ch)
	}
	// Revoke device access *before* the pages go back to the kernel.
	if err := d.iommu.Unmap(c.key.dev, ch.iova, d.ChunkBytes()); err != nil {
		panic("damn: shrinker unmap failed: " + err.Error())
	}
	perf.ChargeCat(x.C, d.teardownCyc, d.model.UnmapCycles*float64(d.cfg.ChunkPages))
	if err := d.iommu.InvQ().Invalidate(x.C, d.model.ITETimeout, iommu.Command{Kind: iommu.InvRange, Dev: c.key.dev, Base: ch.iova, Size: d.ChunkBytes()}); err != nil {
		panic("damn: shrinker invalidation failed: " + err.Error())
	}
	perf.ChargeTimeCat(x.C, d.teardownInvPS, d.model.IOTLBInvLatency)
	// Recycle the identity-region IOVA slot.
	if e, ok := iova.Decode(ch.iova); ok && !ch.huge {
		d.releaseRegionSlot(e.CPU, e.Rights, e.Dev, e.Offset)
	}
	d.unregisterChunk(ch)
	order := log2(d.cfg.ChunkPages)
	d.mem.FreePages(ch.head, order)
	return int64(d.cfg.ChunkPages)
}

// chunkIsDead reports whether the chunk predates the device's current
// generation: its mapping died with a destroyed domain.
func (d *DAMN) chunkIsDead(ch *chunk) bool {
	dev := ch.cache.key.dev
	var gen uint64
	if dev >= 0 && dev < len(d.devGens) {
		gen = d.devGens[dev]
	}
	return ch.gen != gen
}

// releaseDeadChunk reclaims a chunk whose domain no longer exists: no unmap
// and no invalidation (the recovery path's domain teardown and InvDomain
// already revoked device access wholesale), just the IOVA slot, registry
// metadata and pages. Unlike releaseChunk this also handles huge chunks —
// the shared 2 MiB mapping died with the domain, so the usual "cannot unmap
// a shared mapping" constraint is moot.
func (d *DAMN) releaseDeadChunk(x Ctx, c *dmaCache, ch *chunk) int64 {
	perf.ChargeCat(x.C, d.teardownCyc, d.model.DamnFreeCycles)
	if e, ok := iova.Decode(ch.iova); ok && !ch.huge {
		d.releaseRegionSlot(e.CPU, e.Rights, e.Dev, e.Offset)
	}
	d.unregisterChunk(ch)
	d.mem.FreePages(ch.head, log2(d.cfg.ChunkPages))
	return int64(d.cfg.ChunkPages)
}

// ReleaseDevice reclaims every cached resource the allocator holds for one
// device after its domain was destroyed (quarantine, function-level
// reset). It must run *after* iommu.DetachDevice and after a
// domain-wide invalidation has drained, because nothing here touches the
// IOMMU.
//
// The device generation is bumped first, so chunks still pinned by in-flight
// buffers are torn down lazily by their last free (recycle's dead-chunk
// check) instead of re-entering magazines, and chunks created after a
// re-attach start a fresh generation. Then the per-core bump allocators
// retire their carving references, and the magazines, depot and superblock
// spares drain straight to the page allocator.
//
// Returns the pages released now and the chunks still pinned by live
// buffers (they conserve through the lazy path; damn.Audit stays exact
// throughout).
func (d *DAMN) ReleaseDevice(x Ctx, dev int) (releasedPages int64, pinnedChunks int) {
	if dev < 0 {
		return 0, 0
	}
	for dev >= len(d.devGens) {
		d.devGens = append(d.devGens, 0)
	}
	d.devGens[dev]++
	// The device's caches sit side by side, sorted by rights and node.
	lo := d.cacheIndex(cacheKey{dev: dev, rights: iommu.PermRead})
	hi := min(lo+3*d.nodes, len(d.caches))
	for i := lo; i < hi; i++ {
		c := d.caches[i]
		if c == nil {
			continue
		}
		// Retire the bump allocators' carving references. A chunk with no
		// outstanding buffers recycles immediately — and, being from a
		// stale generation now, tears down on the spot; one with live
		// buffers stays out until its last free.
		for cpu := range c.perCPU {
			for ctx := 0; ctx < 2; ctx++ {
				cc := c.perCPU[cpu][ctx]
				for _, b := range []*bumpAlloc{&cc.bump, &cc.bumpPages} {
					if b.ch != nil {
						ch := b.ch
						b.ch = nil
						b.offset = 0
						d.putChunkRef(x, ch)
					}
				}
			}
		}
		var victims []*chunk
		victims = append(victims, c.depot.drainFull()...)
		for cpu := range c.perCPU {
			for ctx := 0; ctx < 2; ctx++ {
				cc := c.perCPU[cpu][ctx]
				for _, m := range []*magazine{cc.loaded, cc.previous} {
					if m == nil {
						continue
					}
					victims = append(victims, m.chunks...)
					m.chunks = m.chunks[:0]
				}
			}
		}
		victims = append(victims, c.depotSpare...)
		c.depotSpare = nil
		for _, ch := range victims {
			releasedPages += d.releaseDeadChunk(x, c, ch)
		}
	}

	for _, ch := range d.registry[:d.regUsed] {
		if ch != nil && ch.cache.key.dev == dev {
			pinnedChunks++
		}
	}
	return releasedPages, pinnedChunks
}
