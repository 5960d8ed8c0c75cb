package damn

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/stats"
)

const testDev = 3

type fixture struct {
	mem   *mem.Memory
	iommu *iommu.IOMMU
	d     *DAMN
}

func newFixture(t testing.TB, cfgMod func(*Config)) *fixture {
	t.Helper()
	m, err := mem.New(mem.Config{TotalBytes: 128 << 20, NUMANodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := iommu.New(m)
	u.AttachDevice(testDev)
	cfg := DefaultConfig([]int{0, 0, 1, 1}) // 4 cores, 2 per node
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	d, err := New(m, u, perf.Default28Core(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mem: m, iommu: u, d: d}
}

func TestAllocReturnsDMAableBuffer(t *testing.T) {
	f := newFixture(t, nil)
	pa, err := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, 1500)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := f.d.IOVAOf(pa)
	if !ok {
		t.Fatal("IOVAOf failed for DAMN buffer")
	}
	// The device can write the buffer through the permanent mapping.
	if _, err := f.iommu.DMAWrite(testDev, v, []byte("packet data")); err != nil {
		t.Fatalf("device DMA to DAMN buffer failed: %v", err)
	}
	// And the kernel sees the data (no copies in between).
	got := make([]byte, 11)
	f.mem.Read(pa, got)
	if string(got) != "packet data" {
		t.Fatalf("kernel sees %q", got)
	}
	if err := f.d.Free(Ctx{}, pa); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRespectsRights(t *testing.T) {
	f := newFixture(t, nil)
	// A read-only (TX) buffer must not be writable by the device.
	pa, err := f.d.Alloc(Ctx{}, testDev, iommu.PermRead, 512)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := f.d.IOVAOf(pa)
	if _, err := f.iommu.DMAWrite(testDev, v, []byte("overwrite")); err == nil {
		t.Fatal("device wrote a read-only TX buffer")
	}
	if _, err := f.iommu.DMARead(testDev, v, make([]byte, 16)); err != nil {
		t.Fatalf("device read of TX buffer failed: %v", err)
	}
	f.d.Free(Ctx{}, pa)
}

func TestAllocAlignment(t *testing.T) {
	f := newFixture(t, nil)
	for _, size := range []int{1, 7, 8, 100, 1500, 9000, 65536} {
		pa, err := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		if pa%8 != 0 {
			t.Errorf("Alloc(%d) not 8-byte aligned: %#x", size, pa)
		}
		f.d.Free(Ctx{}, pa)
	}
}

func TestAllocPagesNaturalAlignment(t *testing.T) {
	f := newFixture(t, nil)
	for k := 0; k <= 4; k++ {
		p, err := f.d.AllocPages(Ctx{}, testDev, iommu.PermWrite, k)
		if err != nil {
			t.Fatalf("AllocPages(%d): %v", k, err)
		}
		if uint64(p.PFN())&uint64(1<<k-1) != 0 {
			t.Errorf("AllocPages(%d) at pfn %d not naturally aligned", k, p.PFN())
		}
		if err := f.d.FreePages(Ctx{}, p, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllocRejectsBadArgs(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, f.d.MaxAlloc()+1); err == nil {
		t.Error("oversize accepted")
	}
	if _, err := f.d.Alloc(Ctx{}, -1, iommu.PermWrite, 64); err == nil {
		t.Error("negative dev accepted")
	}
	if _, err := f.d.Alloc(Ctx{}, iova.MaxDev+1, iommu.PermWrite, 64); err == nil {
		t.Error("oversized dev accepted")
	}
	if _, err := f.d.Alloc(Ctx{}, testDev, 0, 64); err == nil {
		t.Error("zero rights accepted")
	}
}

func TestFreeOfNonDAMNFails(t *testing.T) {
	f := newFixture(t, nil)
	p, _ := f.mem.AllocPages(0, 0)
	if err := f.d.Free(Ctx{}, p.PFN().Addr()); err == nil {
		t.Fatal("freeing a non-DAMN page should fail")
	}
	if f.d.Owns(p.PFN().Addr()) {
		t.Fatal("Owns claimed a kernel page")
	}
}

func TestIOVAEncodingIdentity(t *testing.T) {
	f := newFixture(t, nil)
	pa, err := f.d.Alloc(Ctx{CPU: 2}, testDev, iommu.PermWrite, 256)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := f.d.IOVAOf(pa)
	if !iova.IsDAMN(v) {
		t.Fatal("DAMN buffer IOVA lacks the partition bit")
	}
	e, ok := iova.Decode(v)
	if !ok {
		t.Fatal("decode failed")
	}
	if e.CPU != 2 || e.Rights != iommu.PermWrite || e.Dev != testDev {
		t.Fatalf("encoded identity = %+v", e)
	}
	f.d.Free(Ctx{CPU: 2}, pa)
}

func TestChunkSharingAndRefcount(t *testing.T) {
	f := newFixture(t, nil)
	// Two small allocations share one chunk; the chunk must survive
	// until both are freed.
	pa1, _ := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, 100)
	pa2, _ := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, 100)
	h1 := f.mem.Head(f.mem.PageOfAddr(pa1))
	h2 := f.mem.Head(f.mem.PageOfAddr(pa2))
	if h1 != h2 {
		t.Fatal("small allocations should share a chunk")
	}
	if err := f.d.Free(Ctx{}, pa1); err != nil {
		t.Fatal(err)
	}
	// Chunk still owned (pa2 alive + bump allocator reference).
	if !f.d.Owns(pa2) {
		t.Fatal("chunk metadata vanished while buffers live")
	}
	if err := f.d.Free(Ctx{}, pa2); err != nil {
		t.Fatal(err)
	}
}

func TestChunkRecycledThroughMagazine(t *testing.T) {
	f := newFixture(t, nil)
	x := Ctx{}
	// Exhaust chunks repeatedly with full-size allocations; freed chunks
	// must be reused rather than newly created.
	var pas []mem.PhysAddr
	for i := 0; i < 4; i++ {
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		pas = append(pas, pa)
	}
	for _, pa := range pas {
		f.d.Free(x, pa)
	}
	created := f.d.ChunksCreated
	for round := 0; round < 10; round++ {
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		f.d.Free(x, pa)
	}
	// Reuse may need one extra chunk (the bump allocator retires chunks
	// lazily) but must not create one per round.
	if f.d.ChunksCreated > created+2 {
		t.Fatalf("chunks not recycled: created %d -> %d", created, f.d.ChunksCreated)
	}
}

func TestMappingIsPermanent(t *testing.T) {
	f := newFixture(t, nil)
	x := Ctx{}
	pa, _ := f.d.Alloc(x, testDev, iommu.PermWrite, 2048)
	v, _ := f.d.IOVAOf(pa)
	f.d.Free(x, pa)
	// After free (buffer recycled, not shrunk), the mapping must still
	// exist and the IOMMU must never have seen an unmap.
	if f.iommu.Unmappings != 0 {
		t.Fatalf("DAMN unmapped a chunk on free: %d", f.iommu.Unmappings)
	}
	if _, err := f.iommu.Translate(testDev, v, true); err != nil {
		t.Fatal("permanent mapping destroyed by free")
	}
	if f.iommu.TLB().FlushCommands != 0 {
		t.Fatal("DAMN should not invalidate the IOTLB on free")
	}
}

func TestChunksAreZeroedOnCreation(t *testing.T) {
	f := newFixture(t, nil)
	z0 := f.mem.ZeroedBytes()
	pa, _ := f.d.Alloc(Ctx{}, testDev, iommu.PermRead, 4096)
	if f.mem.ZeroedBytes() < z0+int64(f.d.ChunkBytes()) {
		t.Fatal("fresh chunk not zeroed (TX security, §5.6)")
	}
	buf := f.mem.Bytes(pa, 4096)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	f.d.Free(Ctx{}, pa)
}

func TestSeparateContexts(t *testing.T) {
	f := newFixture(t, nil)
	std := Ctx{CPU: 1, IRQ: false}
	irq := Ctx{CPU: 1, IRQ: true}
	pa1, err := f.d.Alloc(std, testDev, iommu.PermRead, 64)
	if err != nil {
		t.Fatal(err)
	}
	pa2, err := f.d.Alloc(irq, testDev, iommu.PermRead, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The two contexts use distinct bump chunks (§5.4 "two physical
	// copies"), so the buffers come from different chunks.
	h1 := f.mem.Head(f.mem.PageOfAddr(pa1))
	h2 := f.mem.Head(f.mem.PageOfAddr(pa2))
	if h1 == h2 {
		t.Fatal("standard and interrupt context shared a bump chunk")
	}
	f.d.Free(std, pa1)
	f.d.Free(irq, pa2)
}

func TestNUMALocalChunks(t *testing.T) {
	f := newFixture(t, nil)
	pa0, _ := f.d.Alloc(Ctx{CPU: 0}, testDev, iommu.PermWrite, 64) // node 0
	pa1, _ := f.d.Alloc(Ctx{CPU: 2}, testDev, iommu.PermWrite, 64) // node 1
	if n := f.mem.PageOfAddr(pa0).Node; n != 0 {
		t.Errorf("core-0 buffer on node %d", n)
	}
	if n := f.mem.PageOfAddr(pa1).Node; n != 1 {
		t.Errorf("core-2 buffer on node %d", n)
	}
	f.d.Free(Ctx{CPU: 0}, pa0)
	f.d.Free(Ctx{CPU: 2}, pa1)
}

func TestByteGranularityIsolation(t *testing.T) {
	// §4/§5.6: DAMN pages contain only DMA buffers, so nothing sensitive
	// is ever co-located. Verify a device probing around its buffer only
	// ever reaches DAMN memory.
	f := newFixture(t, nil)
	pa, _ := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, 512)
	v, _ := f.d.IOVAOf(pa)
	probe := v &^ iommu.IOVA(mem.PageMask) // page base
	got, err := f.iommu.Translate(testDev, probe, true)
	if err != nil {
		t.Fatal(err)
	}
	if !f.d.Owns(got) {
		t.Fatal("device reached non-DAMN memory via a DAMN mapping")
	}
	f.d.Free(Ctx{}, pa)
}

func TestShrinkerReleasesCachedChunks(t *testing.T) {
	f := newFixture(t, nil)
	x := Ctx{}
	var pas []mem.PhysAddr
	for i := 0; i < 8; i++ {
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		pas = append(pas, pa)
	}
	for _, pa := range pas {
		f.d.Free(x, pa)
	}
	footBefore := f.d.FootprintBytes()
	memBefore := f.mem.AllocatedPages()
	released := f.d.Shrink(x)
	if released == 0 {
		t.Fatal("shrinker released nothing despite cached chunks")
	}
	if f.d.FootprintBytes() >= footBefore {
		t.Fatal("footprint did not shrink")
	}
	if f.mem.AllocatedPages() >= memBefore {
		t.Fatal("pages not returned to the system")
	}
}

func TestShrinkerRevokesDeviceAccess(t *testing.T) {
	f := newFixture(t, nil)
	x := Ctx{}
	// Fill chunk 1 and keep its buffer alive while the bump allocator
	// moves on to chunk 2; freeing the chunk-1 buffer then parks chunk 1
	// in the magazine, where the shrinker can take it.
	pa, _ := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
	v, _ := f.d.IOVAOf(pa)
	// Prime the IOTLB so a lazy shrinker would leave a stale entry.
	if _, err := f.iommu.DMAWrite(testDev, v, []byte("x")); err != nil {
		t.Fatal(err)
	}
	pa2, _ := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
	f.d.Free(x, pa)
	f.d.Shrink(x)
	defer f.d.Free(x, pa2)
	if _, err := f.iommu.DMAWrite(testDev, v, []byte("use-after-shrink")); err == nil {
		t.Fatal("device retained access to shrunk chunk — kernel memory exposed")
	}
}

func TestShrinkerLeavesLiveBuffersAlone(t *testing.T) {
	f := newFixture(t, nil)
	x := Ctx{}
	live, _ := f.d.Alloc(x, testDev, iommu.PermWrite, 1024)
	vLive, _ := f.d.IOVAOf(live)
	f.d.Shrink(x)
	if _, err := f.iommu.DMAWrite(testDev, vLive, []byte("still here")); err != nil {
		t.Fatalf("shrinker broke a live buffer: %v", err)
	}
	f.d.Free(x, live)
}

func TestDenseHugeIOVAVariant(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.DenseHugeIOVA = true })
	x := Ctx{}
	var pas []mem.PhysAddr
	for i := 0; i < 40; i++ { // spans more than one 2 MiB superblock
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		v, ok := f.d.IOVAOf(pa)
		if !ok || !iova.IsDAMN(v) {
			t.Fatal("dense variant lost the DAMN partition bit")
		}
		if _, err := f.iommu.DMAWrite(testDev, v, []byte("dense")); err != nil {
			t.Fatalf("DMA to dense-huge chunk failed: %v", err)
		}
		pas = append(pas, pa)
	}
	// IOVAs must be dense: total huge mappings should be 2 (40 chunks /
	// 32 per superblock), not 40.
	if got := f.iommu.MappedPages(testDev); got != 2*512 {
		t.Fatalf("mapped pages = %d, want 1024 (two huge pages)", got)
	}
	for _, pa := range pas {
		f.d.Free(x, pa)
	}
	// Recycling still works in this implementation.
	created := f.d.ChunksCreated
	pa, _ := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
	if f.d.ChunksCreated != created {
		t.Fatal("dense chunks not recycled")
	}
	f.d.Free(x, pa)
}

func TestDenseHugeIOTLBReach(t *testing.T) {
	// The point of Table 3's variant: consecutive chunks share an IOTLB
	// entry. Touch 32 chunks of one superblock and expect ~1 miss.
	f := newFixture(t, func(c *Config) { c.DenseHugeIOVA = true })
	x := Ctx{}
	var iovas []iommu.IOVA
	var pas []mem.PhysAddr
	for i := 0; i < 32; i++ {
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		v, _ := f.d.IOVAOf(pa)
		iovas = append(iovas, v)
		pas = append(pas, pa)
	}
	m0 := f.iommu.TLB().Misses
	for _, v := range iovas {
		if _, err := f.iommu.Translate(testDev, v, true); err != nil {
			t.Fatal(err)
		}
	}
	if misses := f.iommu.TLB().Misses - m0; misses > 1 {
		t.Fatalf("dense huge mapping took %d misses for one superblock, want <= 1", misses)
	}
	for _, pa := range pas {
		f.d.Free(x, pa)
	}
}

func TestSparseIOVAsMissMore(t *testing.T) {
	// Contrast with the default encoding: chunks allocated by different
	// CPUs live in different regions, so the same working set needs one
	// IOTLB entry per chunk page — more misses.
	f := newFixture(t, nil)
	var iovas []iommu.IOVA
	for cpu := 0; cpu < 4; cpu++ {
		for i := 0; i < 8; i++ {
			pa, err := f.d.Alloc(Ctx{CPU: cpu}, testDev, iommu.PermWrite, f.d.MaxAlloc())
			if err != nil {
				t.Fatal(err)
			}
			v, _ := f.d.IOVAOf(pa)
			iovas = append(iovas, v)
		}
	}
	m0 := f.iommu.TLB().Misses
	for _, v := range iovas {
		f.iommu.Translate(testDev, v, true)
	}
	if misses := f.iommu.TLB().Misses - m0; misses < 16 {
		t.Fatalf("sparse encoding took only %d misses; expected one per chunk", misses)
	}
}

func TestFootprintAccounting(t *testing.T) {
	f := newFixture(t, nil)
	if f.d.FootprintBytes() != 0 {
		t.Fatal("fresh allocator has footprint")
	}
	pa, _ := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, 64)
	if f.d.FootprintBytes() < int64(f.d.ChunkBytes()) {
		t.Fatal("footprint missing the live chunk")
	}
	f.d.Free(Ctx{}, pa)
	// Freed chunk stays in the magazines: footprint unchanged (§6.3:
	// memory remains in the DMA cache until the shrinker runs).
	if f.d.FootprintBytes() < int64(f.d.ChunkBytes()) {
		t.Fatal("footprint dropped without a shrink")
	}
	f.d.Shrink(Ctx{})
}

func TestRandomizedAllocFree(t *testing.T) {
	f := newFixture(t, nil)
	rng := rand.New(rand.NewSource(11))
	type buf struct {
		pa   mem.PhysAddr
		size int
		tag  byte
	}
	var live []buf
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			size := rng.Intn(f.d.MaxAlloc()) + 1
			x := Ctx{CPU: rng.Intn(4), IRQ: rng.Intn(2) == 0}
			rights := []iommu.Perm{iommu.PermRead, iommu.PermWrite, iommu.PermRW}[rng.Intn(3)]
			pa, err := f.d.Alloc(x, testDev, rights, size)
			if err != nil {
				continue
			}
			tag := byte(step)
			b := f.mem.Bytes(pa, size)
			for i := range b {
				b[i] = tag
			}
			// No overlap with any live buffer.
			for _, o := range live {
				if pa < o.pa+mem.PhysAddr(o.size) && o.pa < pa+mem.PhysAddr(size) {
					t.Fatalf("overlap: [%#x,+%d) with [%#x,+%d)", pa, size, o.pa, o.size)
				}
			}
			live = append(live, buf{pa, size, tag})
		} else {
			i := rng.Intn(len(live))
			b := live[i]
			// Contents intact (nothing scribbled on it).
			data := f.mem.Bytes(b.pa, b.size)
			for j, v := range data {
				if v != b.tag {
					t.Fatalf("buffer %#x corrupted at %d", b.pa, j)
				}
			}
			x := Ctx{CPU: rng.Intn(4), IRQ: rng.Intn(2) == 0}
			if err := f.d.Free(x, b.pa); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, b := range live {
		f.d.Free(Ctx{}, b.pa)
	}
}

func TestInterposerIntegration(t *testing.T) {
	f := newFixture(t, nil)
	ip := &Interposer{D: f.d}
	pa, _ := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, 1500)
	v, ok := ip.MapHook(nil, testDev, pa, 1500, 1 /* FromDevice */)
	if !ok {
		t.Fatal("MapHook rejected a DAMN buffer")
	}
	want, _ := f.d.IOVAOf(pa)
	if v != want {
		t.Fatalf("MapHook iova %#x, want %#x", v, want)
	}
	if !ip.UnmapHook(nil, testDev, v, 1500, 1) {
		t.Fatal("UnmapHook rejected a DAMN IOVA")
	}
	// Non-DAMN addresses pass through.
	p, _ := f.mem.AllocPages(0, 0)
	if _, ok := ip.MapHook(nil, testDev, p.PFN().Addr(), 100, 1); ok {
		t.Fatal("MapHook claimed a kernel page")
	}
	if ip.UnmapHook(nil, testDev, 0x1000, 100, 1) {
		t.Fatal("UnmapHook claimed a legacy IOVA")
	}
	f.d.Free(Ctx{}, pa)
}

func TestManyDevicesAndCaches(t *testing.T) {
	f := newFixture(t, nil)
	for dev := 0; dev < 8; dev++ {
		f.iommu.AttachDevice(dev)
		pa, err := f.d.Alloc(Ctx{}, dev, iommu.PermRW, 4096)
		if err != nil {
			t.Fatalf("dev %d: %v", dev, err)
		}
		v, _ := f.d.IOVAOf(pa)
		e, _ := iova.Decode(v)
		if e.Dev != dev {
			t.Fatalf("buffer encoded dev %d, want %d", e.Dev, dev)
		}
		// Device isolation: another device cannot use this mapping.
		other := (dev + 1) % 8
		if _, err := f.iommu.Translate(other, v, true); err == nil {
			t.Fatalf("device %d reached device %d's buffer", other, dev)
		}
		f.d.Free(Ctx{}, pa)
	}
}

func TestAblationNoDMACacheTearsDown(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.NoDMACache = true })
	x := Ctx{}
	pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := f.d.IOVAOf(pa)
	if _, err := f.iommu.DMAWrite(testDev, v, []byte("x")); err != nil {
		t.Fatal(err)
	}
	maps := f.iommu.Mappings
	if err := f.d.Free(x, pa); err != nil {
		t.Fatal(err)
	}
	// The chunk must be gone: unmapped, invalidated, pages released.
	if f.iommu.Unmappings == 0 {
		t.Fatal("no unmap on free in no-cache mode")
	}
	if _, err := f.iommu.DMAWrite(testDev, v, []byte("y")); err == nil {
		t.Fatal("device retained access after free")
	}
	if f.d.FootprintBytes() != 0 {
		t.Fatalf("footprint %d after free", f.d.FootprintBytes())
	}
	// The next allocation builds a brand-new chunk.
	pa2, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
	if err != nil {
		t.Fatal(err)
	}
	if f.iommu.Mappings == maps {
		t.Fatal("no fresh mapping for the second allocation")
	}
	f.d.Free(x, pa2)
}

func TestAblationSingleContextSharesCopy(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.SingleContext = true })
	std := Ctx{CPU: 1, IRQ: false}
	irq := Ctx{CPU: 1, IRQ: true}
	pa1, err := f.d.Alloc(std, testDev, iommu.PermRead, 64)
	if err != nil {
		t.Fatal(err)
	}
	pa2, err := f.d.Alloc(irq, testDev, iommu.PermRead, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Unlike the full design (TestSeparateContexts), both contexts carve
	// the same bump chunk.
	h1 := f.mem.Head(f.mem.PageOfAddr(pa1))
	h2 := f.mem.Head(f.mem.PageOfAddr(pa2))
	if h1 != h2 {
		t.Fatal("single-context ablation still split by context")
	}
	f.d.Free(std, pa1)
	f.d.Free(irq, pa2)
}

func TestMagazineDepotRoundTrips(t *testing.T) {
	// Fill and drain far more chunks than one magazine holds: the depot
	// must absorb full magazines and hand them back.
	f := newFixture(t, func(c *Config) { c.MagazineSize = 2 })
	x := Ctx{}
	var pas []mem.PhysAddr
	for i := 0; i < 12; i++ {
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		pas = append(pas, pa)
	}
	for _, pa := range pas {
		if err := f.d.Free(x, pa); err != nil {
			t.Fatal(err)
		}
	}
	created := f.d.ChunksCreated
	// Everything cached: a second round must create nothing.
	for i := 0; i < 12; i++ {
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		pas[i] = pa
	}
	if f.d.ChunksCreated > created+1 {
		t.Fatalf("depot failed to cache: %d -> %d chunks", created, f.d.ChunksCreated)
	}
	for _, pa := range pas {
		f.d.Free(x, pa)
	}
}

func TestProducerConsumerPattern(t *testing.T) {
	// §5.4's target pattern: one core allocates, another frees. Chunks
	// drain into the freeing core's magazines and flow back through the
	// depot to the allocating core.
	f := newFixture(t, nil)
	producer := Ctx{CPU: 0}
	consumer := Ctx{CPU: 2}
	for round := 0; round < 30; round++ {
		pa, err := f.d.Alloc(producer, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.d.Free(consumer, pa); err != nil {
			t.Fatal(err)
		}
	}
	// Footprint must stay bounded (chunks recycle; they don't leak).
	if f.d.FootprintBytes() > 40*int64(f.d.ChunkBytes()) {
		t.Fatalf("footprint grew unbounded: %d bytes", f.d.FootprintBytes())
	}
}

func TestAdaptiveMagazineGrowth(t *testing.T) {
	// Hammer the depot with a producer/consumer flow on a tiny magazine
	// size: the depot must respond by growing magazines, reducing its
	// own hit rate (Bonwick's adaptive policy).
	f := newFixture(t, func(c *Config) { c.MagazineSize = 1 })
	producer := Ctx{CPU: 0}
	consumer := Ctx{CPU: 2}
	cache := f.d.cache(cacheKey{dev: testDev, rights: iommu.PermWrite, node: 0})
	if got := cache.depot.m; got != 1 {
		t.Fatalf("initial magazine size %d", got)
	}
	// Keep several buffers in flight (as a ring does) so the last chunk
	// reference drops on the consumer side and chunks flow through the
	// consumer's magazines and the depot back to the producer.
	var inflight []mem.PhysAddr
	for round := 0; round < 500; round++ {
		pa, err := f.d.Alloc(producer, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		inflight = append(inflight, pa)
		if len(inflight) > 8 {
			if err := f.d.Free(consumer, inflight[0]); err != nil {
				t.Fatal(err)
			}
			inflight = inflight[1:]
		}
	}
	for _, pa := range inflight {
		f.d.Free(consumer, pa)
	}
	grown := cache.depot.m
	if grown <= 1 {
		t.Fatalf("magazine size did not adapt: still %d after heavy depot traffic", grown)
	}
	if grown > magMaxSize {
		t.Fatalf("magazine size %d exceeded the cap", grown)
	}
	// The allocator must still be fully functional with mixed sizes.
	pa, err := f.d.Alloc(producer, testDev, iommu.PermWrite, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.d.Free(consumer, pa); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkerIntegrationWithMemoryPressure(t *testing.T) {
	// End-to-end §5.4: DAMN's cached chunks are released when the page
	// allocator hits pressure, via the registered shrinker.
	f := newFixture(t, nil)
	f.mem.RegisterShrinker(func() int64 { return f.d.Shrink(Ctx{}) })
	x := Ctx{}
	// Park a pile of chunks in the magazines.
	var pas []mem.PhysAddr
	for i := 0; i < 16; i++ {
		pa, err := f.d.Alloc(x, testDev, iommu.PermWrite, f.d.MaxAlloc())
		if err != nil {
			t.Fatal(err)
		}
		pas = append(pas, pa)
	}
	for _, pa := range pas {
		f.d.Free(x, pa)
	}
	cachedBefore := f.d.FootprintBytes()
	if cachedBefore == 0 {
		t.Fatal("nothing cached")
	}
	// Exhaust the machine with kernel allocations; the tail must be fed
	// by DAMN's reclaimed chunks.
	var hogs []*mem.Page
	for {
		p, err := f.mem.AllocPages(4, 0)
		if err != nil {
			break
		}
		hogs = append(hogs, p)
	}
	if f.mem.ReclaimRuns() == 0 {
		t.Fatal("pressure never reached the shrinker")
	}
	if f.d.FootprintBytes() >= cachedBefore {
		t.Fatal("DAMN released nothing under pressure")
	}
	for _, p := range hogs {
		f.mem.FreePages(p, 4)
	}
}

// TestShardAffinity is the per-core shard invariant: an allocation made
// with CPU id n must come out of shard n — the IOVA's encoded CPU field is
// the witness — and no in-range request may trip the clamp counter.
func TestShardAffinity(t *testing.T) {
	f := newFixture(t, nil) // 4 cores
	for cpu := 0; cpu < 4; cpu++ {
		pa, err := f.d.Alloc(Ctx{CPU: cpu}, testDev, iommu.PermWrite, 1500)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := f.d.IOVAOf(pa)
		if !ok {
			t.Fatal("IOVAOf failed")
		}
		enc, ok := iova.Decode(v)
		if !ok {
			t.Fatal("iova.Decode failed")
		}
		if enc.CPU != cpu {
			t.Fatalf("cpu %d allocation landed on shard %d", cpu, enc.CPU)
		}
		if err := f.d.Free(Ctx{CPU: cpu}, pa); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.d.ShardClamps(); got != 0 {
		t.Fatalf("in-range CPUs tripped the shard clamp %d times", got)
	}
}

// TestShardClampCounted: out-of-range CPU ids still work (aliased to shard
// 0, like the encoding clamps them) but are counted, not silent.
func TestShardClampCounted(t *testing.T) {
	f := newFixture(t, nil)
	for _, cpu := range []int{-1, 4, 99} {
		pa, err := f.d.Alloc(Ctx{CPU: cpu}, testDev, iommu.PermWrite, 1500)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := f.d.IOVAOf(pa)
		if !ok {
			t.Fatal("IOVAOf failed")
		}
		enc, ok := iova.Decode(v)
		if !ok {
			t.Fatal("iova.Decode failed")
		}
		if enc.CPU != 0 {
			t.Fatalf("out-of-range cpu %d landed on shard %d, want 0", cpu, enc.CPU)
		}
		if err := f.d.Free(Ctx{CPU: cpu}, pa); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.d.ShardClamps(); got == 0 {
		t.Fatal("out-of-range CPU ids were clamped silently (counter stayed 0)")
	}
}

// TestChunkRegistrationHeap: registering a chunk stores one slot of a table
// sized once in New. Copying the whole registry on every registration
// instead makes n chunks cost about 4n² bytes of host heap, 70 MB for the
// 4,096 chunks below.
func TestChunkRegistrationHeap(t *testing.T) {
	m, err := mem.New(mem.Config{TotalBytes: 512 << 20, NUMANodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	u := iommu.New(m)
	u.AttachDevice(testDev)
	d, err := New(m, u, perf.Default28Core(), DefaultConfig([]int{0, 0, 1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range chunks {
		if _, err := d.Alloc(Ctx{}, testDev, iommu.PermWrite, 64<<10); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if d.ChunksCreated != chunks {
		t.Fatalf("built %d chunks, want %d", d.ChunksCreated, chunks)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("%d chunk builds allocated %d bytes of heap, want < 8 MB", chunks, got)
	}
}

// TestChunkRegistrySlotReuse: four cores build chunks (a registry store)
// and free buffers (a registry load), interleaved, before and after the
// shrinker empties slots; the second round reuses those slots and the
// registry audits clean.
func TestChunkRegistrySlotReuse(t *testing.T) {
	f := newFixture(t, nil)
	churn := func() {
		held := make([][]mem.PhysAddr, 4)
		for range 100 {
			for cpu := range held {
				pa, err := f.d.Alloc(Ctx{CPU: cpu}, testDev, iommu.PermWrite, f.d.MaxAlloc())
				if err != nil {
					t.Fatal(err)
				}
				held[cpu] = append(held[cpu], pa)
			}
		}
		for i := range 100 {
			for cpu := range held {
				if err := f.d.Free(Ctx{CPU: cpu}, held[cpu][i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	churn()
	used := f.d.regUsed
	if f.d.Shrink(Ctx{}) == 0 {
		t.Fatal("shrinker released nothing; no slot was freed for reuse")
	}
	churn()
	if f.d.regUsed != used {
		t.Fatalf("second round used %d registry slots, want the first round's %d reused", f.d.regUsed, used)
	}
	if _, err := f.d.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsViewsReadCounts: the registry's damn views report the chunk
// counts and footprint DAMN keeps, at snapshot time.
func TestStatsViewsReadCounts(t *testing.T) {
	f := newFixture(t, nil)
	reg := stats.NewRegistry()
	f.d.SetStats(reg)
	const chunks = 64
	for i := 0; i < chunks; i++ {
		if _, err := f.d.Alloc(Ctx{}, testDev, iommu.PermWrite, f.d.MaxAlloc()); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("damn/chunks_created"); got != f.d.ChunksCreated || got < chunks {
		t.Errorf("damn/chunks_created = %d, want %d (>= %d)", got, f.d.ChunksCreated, chunks)
	}
	if got := snap.Gauges["damn/footprint_bytes"]; got != f.d.FootprintBytes() {
		t.Errorf("damn/footprint_bytes = %d, want %d", got, f.d.FootprintBytes())
	}
}
