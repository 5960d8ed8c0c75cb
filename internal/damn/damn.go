// Package damn implements DAMN — the DMA-Aware Malloc for Networking — the
// primary contribution of the paper (§5). DAMN is a memory allocator whose
// buffers are *permanently* mapped in the IOMMU for one specific device and
// access right, so network buffers never need per-DMA map/unmap work or
// IOTLB invalidations, while the device can never reach anything except
// packet data.
//
// Structure (paper §5.4):
//
//   - A DMA cache exists per (device, access rights, NUMA node).
//   - The bottom level caches chunks — C=16 physically contiguous pages
//     (64 KiB), IOMMU-mapped at creation — in per-core magazines backed by
//     a shared depot (Bonwick's magazine scheme).
//   - The top level is a pair of per-core bump-pointer ("page frag")
//     allocators per context — one for byte allocations, one for
//     page allocations — carving the current chunk; chunk lifetime is
//     managed with the page reference count of the chunk's head page.
//   - Everything exists twice per core: once for standard context and once
//     for interrupt context, so the allocator never needs to disable
//     interrupts (§5.4 "Physical DMA cache organization").
//
// Buffer metadata (the chunk's IOVA and identity) lives in the otherwise
// unused page structs of the chunk's tail pages, with flag F on the third
// page marking the compound as DAMN-owned (§5.5) — no change to the page
// struct layout is needed.
package damn

import (
	"fmt"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/stats"
)

// Config sizes the allocator.
type Config struct {
	// ChunkPages is C, the pages per chunk; 16 gives the 64 KiB maximum
	// buffer the Linux network stack needs (§5.4).
	ChunkPages int
	// MagazineSize is M, the chunks per magazine.
	MagazineSize int
	// CoreNodes maps core index -> NUMA node; its length is the core
	// count (and bounds the cpu field of encoded IOVAs).
	CoreNodes []int

	// DenseHugeIOVA enables the Table 3 analysis variant: chunks are
	// carved out of 2 MiB superblocks mapped with huge IOVA pages from a
	// single dense region, maximising IOTLB reach. The paper's prototype
	// cannot free such IOVAs; this implementation still recycles chunks
	// through the registry, but the shrinker is disabled in this mode.
	DenseHugeIOVA bool

	// SingleContext is an ablation of §5.4's "two physical copies":
	// one DMA-cache copy per core, protected by disabling interrupts
	// around every operation (the design the paper rejects because
	// "interrupt disabling has measurable negative impact on I/O
	// throughput").
	SingleContext bool

	// NoDMACache is an ablation of the chunk cache itself: freed chunks
	// are unmapped, invalidated and returned to the page allocator
	// immediately, and every allocation builds (zeroes + IOMMU-maps) a
	// fresh chunk — demonstrating why the permanent mapping is the whole
	// point.
	NoDMACache bool
}

// DefaultConfig matches the paper's parameters.
func DefaultConfig(coreNodes []int) Config {
	return Config{ChunkPages: 16, MagazineSize: 8, CoreNodes: coreNodes}
}

// Ctx carries the identity of the executing context into allocator calls:
// which core runs, whether it is in interrupt context, and where to charge
// simulated cycle costs. A zero Ctx is valid for functional tests.
type Ctx struct {
	C   perf.Charger
	CPU int
	IRQ bool
}

func (x Ctx) context() int {
	if x.IRQ {
		return 1
	}
	return 0
}

// ctxIndex selects the per-core cache copy; the SingleContext ablation
// collapses both contexts onto one copy and pays the interrupt-disable
// cost on every operation instead.
func (d *DAMN) ctxIndex(x Ctx) int {
	if d.cfg.SingleContext {
		return 0
	}
	return x.context()
}

func (d *DAMN) chargeCtxProtection(x Ctx) {
	if d.cfg.SingleContext {
		perf.Charge(x.C, d.model.IRQDisableCycles)
	}
}

// DAMN is the allocator instance for one machine.
type DAMN struct {
	mem   *mem.Memory
	iommu *iommu.IOMMU
	model *perf.Model
	cfg   Config

	caches map[cacheKey]*dmaCache
	// shards hold the per-CPU identity-region IOVA allocators: chunk
	// creation on one core draws only from its own shard.
	shards []regionShard
	// registry maps small indexes (stored in tail page structs) back to
	// chunk objects; the functional equivalent of deriving the chunk
	// from page-struct metadata. It has one slot per chunk-sized run of
	// memory, since chunks own disjoint frames, so it never grows.
	// Slots [0, regUsed) have been handed out; freeSlots lists those of
	// them that are empty again.
	registry  []*chunk
	regUsed   int
	freeSlots []int

	// dense is the single dense IOVA bump used in DenseHugeIOVA mode.
	denseNext uint64

	// devGens counts device resets, indexed by device id: chunks record the
	// generation they were created under, and a chunk whose generation is
	// stale is dead — its mapping died with the old domain (see
	// ReleaseDevice).
	devGens []uint64

	// Stats for Fig 10 / EXPERIMENTS.md.
	ChunksCreated  uint64
	ChunksReleased uint64
	footprint      int64 // bytes currently owned by DAMN

	// shardClamps counts requests whose CPU id was out of range and got
	// aliased to shard/magazine 0 — see (*DAMN).shard. Non-zero means the
	// per-core affinity invariant was violated somewhere upstream.
	shardClamps uint64

	// Observability (nil-safe handles; see SetStats). magHitC counts chunk
	// gets served by a per-core magazine, depotHitC by a depot exchange,
	// and buildC the slow path that zeroes and IOMMU-maps a fresh chunk —
	// together they give the cache hit rate §5.4's design exists for.
	magHitC      *stats.Counter
	depotHitC    *stats.Counter
	buildC       *stats.Counter
	shrinkRunsC  *stats.Counter
	shrinkPagesC *stats.Counter
	// reg carries the per-device clamp counters: with tenants mapped to
	// virtual functions, a noisy tenant must not hide behind the
	// machine-global clamp counter.
	reg           *stats.Registry
	allocCyc      *stats.FloatCounter
	freeCyc       *stats.FloatCounter
	refillCyc     *stats.FloatCounter
	buildCyc      *stats.FloatCounter
	teardownCyc   *stats.FloatCounter
	teardownInvPS *stats.FloatCounter
}

// SetStats attaches a metrics registry: the allocator records magazine and
// depot hit rates, chunk builds, shrinker reclaim, and the simulated cycles
// it charges per cost category; chunk creation and teardown, the footprint
// and the shard clamps are views of the counts it keeps.
func (d *DAMN) SetStats(r *stats.Registry) {
	d.reg = r
	d.magHitC = r.Counter("damn", "magazine_hits")
	d.depotHitC = r.Counter("damn", "depot_hits")
	d.buildC = r.Counter("damn", "chunk_builds")
	r.CounterFunc("damn", "chunks_created", func() uint64 { return d.ChunksCreated })
	r.CounterFunc("damn", "chunks_released", func() uint64 { return d.ChunksReleased })
	d.shrinkRunsC = r.Counter("damn", "shrink_runs")
	d.shrinkPagesC = r.Counter("damn", "shrink_pages")
	r.CounterFunc("damn", "shard_cpu_clamps", d.ShardClamps)
	r.GaugeFunc("damn", "footprint_bytes", d.FootprintBytes)
	d.allocCyc = r.FloatCounter("perf", "cycles_damn_alloc")
	d.freeCyc = r.FloatCounter("perf", "cycles_damn_free")
	d.refillCyc = r.FloatCounter("perf", "cycles_damn_refill")
	d.buildCyc = r.FloatCounter("perf", "cycles_damn_build")
	d.teardownCyc = r.FloatCounter("perf", "cycles_damn_teardown")
	d.teardownInvPS = r.FloatCounter("perf", "inv_wait_ps_damn_teardown")
}

type cacheKey struct {
	dev    int
	rights iommu.Perm
	node   int
}

// New builds a DAMN allocator over the machine's memory and IOMMU.
func New(m *mem.Memory, u *iommu.IOMMU, model *perf.Model, cfg Config) (*DAMN, error) {
	if cfg.ChunkPages <= 0 || cfg.ChunkPages&(cfg.ChunkPages-1) != 0 {
		return nil, fmt.Errorf("damn: ChunkPages must be a power of two, got %d", cfg.ChunkPages)
	}
	if cfg.ChunkPages < 4 {
		// Metadata needs tail pages 1 and 2 (§5.5), so chunks must
		// have at least 4 pages.
		return nil, fmt.Errorf("damn: ChunkPages must be >= 4 for tail-page metadata")
	}
	if cfg.MagazineSize <= 0 {
		return nil, fmt.Errorf("damn: MagazineSize must be positive")
	}
	if len(cfg.CoreNodes) == 0 {
		return nil, fmt.Errorf("damn: CoreNodes must not be empty")
	}
	if len(cfg.CoreNodes) > iova.MaxCPU+1 {
		return nil, fmt.Errorf("damn: %d cores exceed the IOVA encoding's %d", len(cfg.CoreNodes), iova.MaxCPU+1)
	}
	return &DAMN{
		mem:      m,
		iommu:    u,
		model:    model,
		cfg:      cfg,
		caches:   make(map[cacheKey]*dmaCache),
		shards:   make([]regionShard, len(cfg.CoreNodes)),
		registry: make([]*chunk, m.NumPages()/cfg.ChunkPages),
	}, nil
}

// ChunkBytes is the byte size of one chunk.
func (d *DAMN) ChunkBytes() int { return d.cfg.ChunkPages * mem.PageSize }

// MaxAlloc is the largest supported allocation (§5.4: 64 KiB with the
// default configuration).
func (d *DAMN) MaxAlloc() int { return d.ChunkBytes() }

// FootprintBytes reports the memory currently owned by DAMN (in-use
// buffers, bump chunks, magazines and depot) — the Fig 10 metric.
func (d *DAMN) FootprintBytes() int64 { return d.footprint }

// noteShardClamp records one out-of-range-CPU alias to shard 0, attributed
// to the device (and hence tenant) whose request carried the bogus CPU id.
// dev < 0 means the caller had no device identity in scope. Clamps are off
// the fast path (zero in a healthy run), so the per-device counter is
// looked up in the registry each time.
func (d *DAMN) noteShardClamp(dev int) {
	d.shardClamps++
	if dev >= 0 && d.reg != nil {
		d.reg.Counter("damn", fmt.Sprintf("shard_cpu_clamps_dev%d", dev)).Inc()
	}
}

// ShardClamps reports how many requests carried a CPU id outside the
// machine and were aliased to shard 0. Zero in a healthy system.
func (d *DAMN) ShardClamps() uint64 { return d.shardClamps }

// nodeOf returns the NUMA node of a core (clamped).
func (d *DAMN) nodeOf(cpu int) int {
	if cpu < 0 || cpu >= len(d.cfg.CoreNodes) {
		return 0
	}
	return d.cfg.CoreNodes[cpu]
}

// cache returns (creating on demand) the DMA cache for a key.
func (d *DAMN) cache(key cacheKey) *dmaCache {
	c := d.caches[key]
	if c == nil {
		c = newDMACache(d, key)
		d.caches[key] = c
	}
	return c
}

// Alloc is damn_alloc (Table 2): it returns the kernel address of an s-byte
// buffer that is DMA-accessible to dev with the given rights. The buffer is
// 8-byte aligned and physically contiguous. dev must be a registered device
// index in [0, 127].
func (d *DAMN) Alloc(x Ctx, dev int, rights iommu.Perm, size int) (mem.PhysAddr, error) {
	if err := d.checkArgs(dev, rights, size); err != nil {
		return 0, err
	}
	perf.ChargeCat(x.C, d.allocCyc, d.model.DamnAllocCycles)
	d.chargeCtxProtection(x)
	c := d.cache(cacheKey{dev: dev, rights: rights, node: d.nodeOf(x.CPU)})
	return c.allocBytes(x, size)
}

// AllocPages is damn_alloc_pages (Table 2): it returns the head page of
// 2^k physically contiguous, naturally aligned, DMA-accessible pages.
func (d *DAMN) AllocPages(x Ctx, dev int, rights iommu.Perm, k int) (*mem.Page, error) {
	size := mem.PageSize << k
	if err := d.checkArgs(dev, rights, size); err != nil {
		return nil, err
	}
	perf.ChargeCat(x.C, d.allocCyc, d.model.DamnAllocCycles)
	d.chargeCtxProtection(x)
	c := d.cache(cacheKey{dev: dev, rights: rights, node: d.nodeOf(x.CPU)})
	pa, err := c.allocPages(x, k)
	if err != nil {
		return nil, err
	}
	return d.mem.PageOfAddr(pa), nil
}

func (d *DAMN) checkArgs(dev int, rights iommu.Perm, size int) error {
	if dev < 0 || dev > iova.MaxDev {
		return fmt.Errorf("damn: device index %d out of range", dev)
	}
	if rights == 0 || rights&^iommu.PermRW != 0 {
		return fmt.Errorf("damn: bad rights %v", rights)
	}
	if size <= 0 || size > d.MaxAlloc() {
		return fmt.Errorf("damn: size %d out of range (max %d)", size, d.MaxAlloc())
	}
	return nil
}

// Free is damn_free (Table 2): callers pass only the address; DAMN finds
// the owning chunk and allocator through the page-struct metadata (§5.5).
func (d *DAMN) Free(x Ctx, addr mem.PhysAddr) error {
	perf.ChargeCat(x.C, d.freeCyc, d.model.DamnFreeCycles)
	d.chargeCtxProtection(x)
	ch := d.chunkOf(addr)
	if ch == nil {
		return fmt.Errorf("damn: free of non-DAMN address %#x", addr)
	}
	d.putChunkRef(x, ch)
	return nil
}

// FreePages is damn_free_pages (Table 2).
func (d *DAMN) FreePages(x Ctx, page *mem.Page, k int) error {
	return d.Free(x, page.PFN().Addr())
}

// putChunkRef drops one reference on the chunk; the last reference sends
// the chunk back to the freeing core's magazine layer.
func (d *DAMN) putChunkRef(x Ctx, ch *chunk) {
	if ch.head.Put() == 0 {
		// Identify the owning DMA cache and recycle (§5.4 "Top-level
		// deallocation").
		ch.cache.recycle(x, ch)
	}
}

// Owns reports whether addr lies in a DAMN buffer — the page-struct check
// of §5.5: a compound page whose third page carries flag F.
func (d *DAMN) Owns(addr mem.PhysAddr) bool {
	return d.chunkOf(addr) != nil
}

// IOVAOf translates a kernel address inside a DAMN buffer to the device-
// visible IOVA, using the metadata stored in the chunk's tail pages. This
// is the dma_map interposition fast path (§5.3/§5.5).
func (d *DAMN) IOVAOf(addr mem.PhysAddr) (iommu.IOVA, bool) {
	ch := d.chunkOf(addr)
	if ch == nil {
		return 0, false
	}
	return ch.iova + iommu.IOVA(addr-ch.pa), true
}

// chunkOf resolves an address to its DAMN chunk, or nil. It runs on every
// Free and every interposed dma_map.
func (d *DAMN) chunkOf(addr mem.PhysAddr) *chunk {
	if d.mem.CheckRange(addr, 1) != nil {
		return nil
	}
	page := d.mem.PageOfAddr(addr)
	head := d.mem.Head(page)
	if !head.IsCompoundHead() {
		return nil
	}
	// Flag F lives on the third page of the compound (§5.5: head and
	// second page have predetermined semantics).
	flagPage := d.mem.PageOf(head.PFN() + 2)
	if !flagPage.Has(mem.FlagDAMN) {
		return nil
	}
	idx := int(flagPage.Private)
	if idx < 1 || idx > len(d.registry) {
		return nil
	}
	return d.registry[idx-1]
}
