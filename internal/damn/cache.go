package damn

import (
	"fmt"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
)

// chunk is the bottom-level allocation unit: C physically contiguous pages,
// permanently IOMMU-mapped for one (device, rights) and recycled through
// the magazine layer. Its head page's refcount counts live buffers plus one
// for the bump allocator currently carving it (the "page frag" scheme of
// §5.4).
type chunk struct {
	head  *mem.Page
	pa    mem.PhysAddr
	iova  iommu.IOVA
	cache *dmaCache
	// regIdx is this chunk's registry slot + 1 (also stored in the third
	// tail page struct).
	regIdx int
	// huge marks chunks carved from a 2 MiB huge-mapped superblock
	// (DenseHugeIOVA variant); they are never unmapped individually.
	huge bool
	// gen is the device generation the chunk was created under. A device
	// reset bumps the generation (ReleaseDevice); a chunk from an older
	// generation is "dead" — its IOMMU mapping died with the old domain —
	// and must be torn down on its last free instead of re-entering
	// circulation, where a rebuilt domain would know nothing of its IOVA.
	gen uint64
}

// dmaCache is one DMA cache: the per-core top level (two bump allocators ×
// two contexts) plus the per-core magazines and the shared depot (§5.4).
type dmaCache struct {
	d   *DAMN
	key cacheKey

	// perCPU[cpu][context]; context 0 = standard, 1 = interrupt.
	perCPU [][2]*cpuCache

	depot depot

	// depotSpare holds chunks carved from a superblock but not yet
	// handed out (DenseHugeIOVA mode only).
	depotSpare []*chunk
}

// cpuCache is the per-core, per-context state.
type cpuCache struct {
	// bump carves byte allocations; bumpPages carves page allocations —
	// two separate bump allocators per §5.4 so page-aligned requests do
	// not fragment the byte chunk.
	bump      bumpAlloc
	bumpPages bumpAlloc

	loaded   *magazine
	previous *magazine
}

// bumpAlloc carves a chunk by advancing an offset.
type bumpAlloc struct {
	ch     *chunk
	offset int
}

func newDMACache(d *DAMN, key cacheKey) *dmaCache {
	c := &dmaCache{d: d, key: key}
	c.perCPU = make([][2]*cpuCache, len(d.cfg.CoreNodes))
	for i := range c.perCPU {
		c.perCPU[i][0] = &cpuCache{}
		c.perCPU[i][1] = &cpuCache{}
	}
	c.depot.m = d.cfg.MagazineSize
	return c
}

func (c *dmaCache) cpu(x Ctx) *cpuCache {
	cpu := x.CPU
	if cpu < 0 || cpu >= len(c.perCPU) {
		cpu = 0
		c.d.noteShardClamp(c.key.dev)
	}
	return c.perCPU[cpu][c.d.ctxIndex(x)]
}

// allocBytes satisfies damn_alloc: 8-byte aligned bump allocation.
func (c *dmaCache) allocBytes(x Ctx, size int) (mem.PhysAddr, error) {
	cc := c.cpu(x)
	size = (size + 7) &^ 7
	return c.bumpFrom(x, &cc.bump, size, 8)
}

// allocPages satisfies damn_alloc_pages: naturally aligned page blocks.
func (c *dmaCache) allocPages(x Ctx, k int) (mem.PhysAddr, error) {
	cc := c.cpu(x)
	size := mem.PageSize << k
	return c.bumpFrom(x, &cc.bumpPages, size, size)
}

// bumpFrom allocates from a bump allocator, replacing its chunk when
// exhausted. Every allocation takes a chunk reference (§5.4).
func (c *dmaCache) bumpFrom(x Ctx, b *bumpAlloc, size, align int) (mem.PhysAddr, error) {
	for try := 0; try < 2; try++ {
		if b.ch != nil {
			off := (b.offset + align - 1) &^ (align - 1)
			if off+size <= c.d.ChunkBytes() {
				b.offset = off + size
				b.ch.head.Get()
				pa := b.ch.pa + mem.PhysAddr(off)
				if c.d.cfg.NoDMACache && b.offset >= c.d.ChunkBytes() {
					// Ablation: nothing is cached, so an exhausted
					// chunk is retired immediately — the last free
					// tears it down.
					ch := b.ch
					b.ch = nil
					b.offset = 0
					c.d.putChunkRef(x, ch)
				}
				return pa, nil
			}
			// Chunk exhausted: retire it (drop the allocator's own
			// reference; outstanding buffers keep it alive).
			ch := b.ch
			b.ch = nil
			b.offset = 0
			c.d.putChunkRef(x, ch)
		}
		ch, err := c.getChunk(x)
		if err != nil {
			return 0, err
		}
		// The bump allocator holds one reference while carving.
		ch.head.SetRefCount(1)
		b.ch = ch
		b.offset = 0
	}
	return 0, fmt.Errorf("damn: bump allocation failed for size %d", size)
}

// getChunk obtains a chunk from the magazine layer (§5.4 "Bottom-level
// chunk cache"): loaded magazine → previous magazine → depot exchange →
// fresh allocation.
func (c *dmaCache) getChunk(x Ctx) (*chunk, error) {
	if c.d.cfg.NoDMACache {
		// Ablation: no caching layer at all.
		return c.newChunk(x)
	}
	cc := c.cpu(x)
	if cc.loaded != nil && !cc.loaded.empty() {
		c.d.magHitC.Inc()
		return cc.loaded.pop(), nil
	}
	if cc.previous != nil && !cc.previous.empty() {
		cc.loaded, cc.previous = cc.previous, cc.loaded
		c.d.magHitC.Inc()
		return cc.loaded.pop(), nil
	}
	// Depot round trip.
	perf.ChargeCat(x.C, c.d.refillCyc, c.d.model.DamnRefillCycles)
	full := c.depot.exchangeForFull(x, cc.loaded)
	if full != nil {
		cc.loaded = full
		c.d.depotHitC.Inc()
		return cc.loaded.pop(), nil
	}
	// Depot has nothing cached: fall back to the page allocator and
	// build a fresh chunk (zeroed and IOMMU-mapped).
	return c.newChunk(x)
}

// putChunk returns a free chunk to the magazine layer.
func (c *dmaCache) putChunk(x Ctx, ch *chunk) {
	cc := c.cpu(x)
	if cc.loaded == nil {
		cc.loaded = newMagazine(c.depot.m)
	}
	if !cc.loaded.full() {
		cc.loaded.push(ch)
		return
	}
	if cc.previous == nil || !cc.previous.full() {
		cc.loaded, cc.previous = cc.previous, cc.loaded
		if cc.loaded == nil {
			cc.loaded = newMagazine(c.depot.m)
		}
		cc.loaded.push(ch)
		return
	}
	// Both magazines full: hand the loaded one to the depot.
	perf.ChargeCat(x.C, c.d.refillCyc, c.d.model.DamnRefillCycles)
	empty := c.depot.exchangeForEmpty(x, cc.loaded)
	cc.loaded = empty
	cc.loaded.push(ch)
}

// recycle is called when a chunk's refcount reaches zero: the freeing core
// looks up the owning cache (already done via the registry) and returns the
// chunk to *its own* magazine for that cache (§5.4 "Top-level
// deallocation"). The chunk's identity (and thus IOVA) is unchanged — it
// stays mapped, ready for reuse.
func (c *dmaCache) recycle(x Ctx, ch *chunk) {
	if c.d.chunkIsDead(ch) {
		// The chunk belongs to a generation whose domain a device reset
		// destroyed: its mapping is gone and the reset's domain-wide
		// invalidation retired any stale IOTLB entries. Tear it down
		// without touching the IOMMU.
		c.d.releaseDeadChunk(x, c, ch)
		return
	}
	if c.d.cfg.NoDMACache && !ch.huge {
		// Ablation: tear the chunk down on every free — unmap, wait
		// for the invalidation, release the pages. This is the cost
		// the permanent mapping avoids. releaseChunk charges the
		// unmap cycles and invalidation wait to x.
		c.d.releaseChunk(x, c, ch)
		return
	}
	c.putChunk(x, ch)
}

// newChunk allocates, zeroes and IOMMU-maps a fresh chunk for this cache.
func (c *dmaCache) newChunk(x Ctx) (*chunk, error) {
	d := c.d
	if d.cfg.DenseHugeIOVA {
		return c.newChunkFromSuperblock(x)
	}
	order := log2(d.cfg.ChunkPages)
	head, err := d.mem.AllocPages(order, c.key.node)
	if err != nil {
		return nil, err
	}
	pa := head.PFN().Addr()
	d.mem.Zero(pa, d.ChunkBytes())
	// Building a chunk is the slow path: zeroing plus IOMMU mapping of
	// every page. With the DMA cache this amortizes to ~nothing; the
	// NoDMACache ablation pays it on every allocation.
	d.buildC.Inc()
	perf.ChargeCat(x.C, d.buildCyc, d.model.ZeroCyclesPerByte*float64(d.ChunkBytes())+
		d.model.MapCycles*float64(d.cfg.ChunkPages))
	v, err := d.allocEncodedIOVA(x.CPU, c.key.rights, c.key.dev)
	if err != nil {
		d.mem.FreePages(head, order)
		return nil, err
	}
	if err := d.iommu.Map(c.key.dev, v, pa, d.ChunkBytes(), c.key.rights); err != nil {
		d.mem.FreePages(head, order)
		return nil, err
	}
	ch := &chunk{head: head, pa: pa, iova: v, cache: c}
	d.registerChunk(ch)
	return ch, nil
}

// log2 of a power of two.
func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// regionKey identifies one identity region within a CPU's shard.
type regionKey struct {
	rights iommu.Perm
	dev    int
}

// regionShard holds one CPU's identity-region allocators. IOVA regions are
// per-(cpu, rights, dev) by construction (Figure 3 encodes the CPU into the
// address), so chunk creation on one core draws only from that core's
// shard; only the shrinker returns slots to another core's shard.
type regionShard struct {
	regions map[regionKey]*regionAlloc
}

// shard returns the region shard for a CPU, clamping out-of-range values
// the same way the IOVA encoding does. A clamp means some caller handed us
// a CPU id the machine does not have — the work lands on shard 0, skewing
// per-core accounting and contention — so every clamp is counted and
// surfaced via ShardClamps / the damn.shard_cpu_clamps stat instead of
// disappearing silently.
func (d *DAMN) shard(cpu, dev int) *regionShard {
	if cpu < 0 || cpu >= len(d.shards) {
		cpu = 0
		d.noteShardClamp(dev)
	}
	return &d.shards[cpu]
}

// allocEncodedIOVA takes the next chunk-sized slot in the 1 GiB region of
// the (cpu, rights, dev) identity and encodes it per Figure 3.
func (d *DAMN) allocEncodedIOVA(cpu int, rights iommu.Perm, dev int) (iommu.IOVA, error) {
	if cpu < 0 || cpu >= len(d.cfg.CoreNodes) {
		cpu = 0
		d.noteShardClamp(dev)
	}
	s := d.shard(cpu, dev)
	key := regionKey{rights: rights, dev: dev}
	r := s.regions[key]
	if r == nil {
		if s.regions == nil {
			s.regions = make(map[regionKey]*regionAlloc)
		}
		r = &regionAlloc{}
		s.regions[key] = r
	}
	off, err := r.alloc(uint64(d.ChunkBytes()))
	if err != nil {
		return 0, err
	}
	return iova.Encode(cpu, rights, dev, off)
}

// releaseRegionSlot returns a chunk's IOVA slot to its identity region
// (shrinker and dead-chunk teardown paths).
func (d *DAMN) releaseRegionSlot(cpu int, rights iommu.Perm, dev int, off uint64) {
	s := d.shard(cpu, dev)
	if r := s.regions[regionKey{rights: rights, dev: dev}]; r != nil {
		r.release(off)
	}
}

// regionAlloc hands out chunk-sized offsets within one identity's 1 GiB
// region, reusing freed slots (the shrinker returns them).
type regionAlloc struct {
	next uint64
	free []uint64
}

func (r *regionAlloc) alloc(size uint64) (uint64, error) {
	if n := len(r.free); n > 0 {
		off := r.free[n-1]
		r.free = r.free[:n-1]
		return off, nil
	}
	if r.next+size > iova.OffsetSpace {
		return 0, fmt.Errorf("damn: identity IOVA region exhausted")
	}
	off := r.next
	r.next += size
	return off, nil
}

func (r *regionAlloc) release(off uint64) { r.free = append(r.free, off) }

// registerChunk writes the §5.5 metadata: flag F plus the registry index on
// the third page, the IOVA on the second page, and accounts the footprint.
func (d *DAMN) registerChunk(ch *chunk) {
	var idx int
	if n := len(d.freeSlots); n > 0 {
		idx = d.freeSlots[n-1]
		d.freeSlots = d.freeSlots[:n-1]
	} else {
		idx = d.regUsed
		d.regUsed++
	}
	d.registry[idx] = ch
	ch.regIdx = idx + 1
	if dev := ch.cache.key.dev; dev >= 0 && dev < len(d.devGens) {
		ch.gen = d.devGens[dev]
	}
	tail1 := d.mem.PageOf(ch.head.PFN() + 1)
	tail1.Private = uint64(ch.iova)
	tail2 := d.mem.PageOf(ch.head.PFN() + 2)
	tail2.Private = uint64(ch.regIdx)
	tail2.SetFlags(mem.FlagDAMN)
	d.ChunksCreated++
	d.footprint += int64(d.ChunkBytes())
}

// unregisterChunk removes the metadata (shrinker path).
func (d *DAMN) unregisterChunk(ch *chunk) {
	tail2 := d.mem.PageOf(ch.head.PFN() + 2)
	tail2.ClearFlags(mem.FlagDAMN)
	tail2.Private = 0
	d.mem.PageOf(ch.head.PFN() + 1).Private = 0
	d.registry[ch.regIdx-1] = nil
	d.freeSlots = append(d.freeSlots, ch.regIdx-1)
	ch.regIdx = 0
	d.ChunksReleased++
	d.footprint -= int64(d.ChunkBytes())
}
