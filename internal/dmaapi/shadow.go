package dmaapi

import (
	"fmt"
	"math"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

// ShadowScheme implements DMA shadow buffers (Markuze et al., ASPLOS'16):
// the device is restricted to a pool of permanently IOMMU-mapped shadow
// pages, and the DMA API copies data between the caller's buffer and a
// shadow buffer on every map/unmap. No IOTLB invalidations ever happen, and
// the device can only ever see DMA data (byte granularity) — but every byte
// moved over the network is copied one extra time, which is the CPU and
// memory-bandwidth tax the paper measures (§4.2).
type ShadowScheme struct {
	mem   *mem.Memory
	u     *iommu.IOMMU
	model *perf.Model
	membw *sim.MemController
	alloc *iova.Allocator

	// bufs holds every shadow buffer the pools have grown, by index, and
	// byDepth maps a buffer's IOVA, by its page depth in alloc's space, to
	// its index + 1 (0: no buffer starts there). The scheme frees IOVA
	// space only after a failed growth, before any buffer records it, so
	// the buffers pack the top of the space and byDepth stays dense. This
	// is how Linux's swiotlb finds a slot's original address by index.
	bufs    []shadowBuf
	byDepth []int32
	// pools holds the free buffer indexes of each (device, permission)
	// pool at dev<<2 | perm, by size class: class i holds 4 KiB << i, up
	// to 64 KiB.
	pools [][5][]int32

	// Stats.
	CopiedBytes uint64
	PoolBytes   int64 // permanently mapped shadow memory
	PoolGrowths uint64
}

// shadowBuf is one permanently mapped shadow buffer of 4 KiB << class
// bytes and, while mapped, the caller's buffer it stands in for.
type shadowBuf struct {
	pa     mem.PhysAddr
	v      iommu.IOVA
	class  int
	pool   int
	mapped bool
	origPA mem.PhysAddr
	size   int // caller's transfer size
}

// NewShadowScheme builds the shadow-buffer scheme. membw may be nil in
// functional tests.
func NewShadowScheme(m *mem.Memory, u *iommu.IOMMU, model *perf.Model, membw *sim.MemController) *ShadowScheme {
	return &ShadowScheme{
		mem:   m,
		u:     u,
		model: model,
		membw: membw,
		alloc: iova.NewAPIAllocator(),
	}
}

func (*ShadowScheme) Name() string { return "shadow" }

func classFor(size int) (int, error) {
	c := 0
	for sz := mem.PageSize; c < 5; c, sz = c+1, sz*2 {
		if size <= sz {
			return c, nil
		}
	}
	return 0, fmt.Errorf("dmaapi: shadow buffer request %d exceeds 64 KiB", size)
}

// poolOf returns the pool index of (dev, perm), or -1 for an id no IOMMU
// domain can have.
func poolOf(dev int, perm iommu.Perm) int {
	if dev < 0 || dev > math.MaxUint16 {
		return -1
	}
	return dev<<2 | int(perm)
}

// get returns the index of a shadow buffer of the class covering size,
// growing the pool (allocate pages, map them permanently) when its free
// list is empty.
func (s *ShadowScheme) get(c perf.Charger, dev int, perm iommu.Perm, size int) (int32, error) {
	class, err := classFor(size)
	if err != nil {
		return 0, err
	}
	pool := poolOf(dev, perm)
	if pool >= 0 && pool < len(s.pools) {
		free := &s.pools[pool][class]
		if n := len(*free); n > 0 {
			i := (*free)[n-1]
			*free = (*free)[:n-1]
			return i, nil
		}
	}
	// Grow: allocate an order-class block and map it permanently.
	page, err := s.mem.AllocPages(class, 0)
	if err != nil {
		return 0, err
	}
	bytes := mem.PageSize << class
	pa := page.PFN().Addr()
	s.mem.Zero(pa, bytes)
	v, err := s.alloc.Alloc(bytes)
	if err != nil {
		s.mem.FreePages(page, class)
		return 0, err
	}
	if err := s.u.Map(dev, v, pa, bytes, perm); err != nil {
		s.alloc.Free(v)
		s.mem.FreePages(page, class)
		return 0, err
	}
	s.PoolBytes += int64(bytes)
	s.PoolGrowths++
	perf.Charge(c, s.model.MapCycles) // one-time mapping cost
	i := int32(len(s.bufs))
	s.bufs = append(s.bufs, shadowBuf{pa: pa, v: v, class: class, pool: pool})
	d, _ := s.alloc.Depth(v) // v came from alloc
	if d >= len(s.byDepth) {
		s.byDepth = append(s.byDepth, make([]int32, d+1-len(s.byDepth))...)
	}
	s.byDepth[d] = i + 1
	return i, nil
}

// bufAt returns the index of the mapped shadow buffer at v, or -1.
func (s *ShadowScheme) bufAt(v iommu.IOVA) int32 {
	d, ok := s.alloc.Depth(v)
	if !ok || d >= len(s.byDepth) {
		return -1
	}
	i := s.byDepth[d] - 1
	if i < 0 || !s.bufs[i].mapped {
		return -1
	}
	return i
}

func (s *ShadowScheme) Map(c perf.Charger, dev int, pa mem.PhysAddr, size int, dir Direction) (iommu.IOVA, error) {
	perf.Charge(c, s.model.ShadowMgmtCycles)
	i, err := s.get(c, dev, dir.Perm(), size)
	if err != nil {
		return 0, err
	}
	b := &s.bufs[i]
	if dir == ToDevice || dir == Bidirectional {
		// Stage the payload into the shadow buffer: the extra copy.
		s.mem.Copy(b.pa, pa, size)
		s.CopiedBytes += uint64(size)
		perf.CPUCopy(c, s.membw, size, s.model.ShadowTXCopyCyclesPerByte, s.model.ShadowCopyMemFraction)
	}
	b.mapped, b.origPA, b.size = true, pa, size
	return b.v, nil
}

// Unmap revokes the mapping Map returned at v. An IOVA that is not a
// shadow buffer mapped for dev, or a size outside the mapped one, is an
// error that changes nothing.
func (s *ShadowScheme) Unmap(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) error {
	perf.Charge(c, s.model.ShadowMgmtCycles)
	i := s.bufAt(v)
	if i < 0 || s.bufs[i].pool>>2 != dev {
		return fmt.Errorf("dmaapi: shadow unmap of unknown iova %#x for device %d", v, dev)
	}
	b := &s.bufs[i]
	if size <= 0 || size > b.size {
		return fmt.Errorf("dmaapi: shadow unmap size %d of a %d-byte mapping", size, b.size)
	}
	b.mapped = false
	if dir == FromDevice || dir == Bidirectional {
		// Copy the received data out of the shadow into the caller's
		// buffer: the RX-side extra copy.
		s.mem.Copy(b.origPA, b.pa, b.size)
		s.CopiedBytes += uint64(b.size)
		perf.CPUCopy(c, s.membw, b.size, s.model.ColdCopyCyclesPerByte, s.model.ShadowCopyMemFraction)
	}
	// Recycle the shadow buffer; its mapping stays alive forever, which
	// is the whole point: no IOTLB invalidation is ever needed.
	if b.pool >= len(s.pools) {
		s.pools = append(s.pools, make([][5][]int32, b.pool+1-len(s.pools))...)
	}
	s.pools[b.pool][b.class] = append(s.pools[b.pool][b.class], i)
	return nil
}
