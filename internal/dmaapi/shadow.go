package dmaapi

import (
	"fmt"
	"sync"

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
	mu    sync.Mutex
	mem   *mem.Memory
	u     *iommu.IOMMU
	model *perf.Model
	membw *sim.MemController
	alloc *iova.Allocator

	pools    map[poolKey]*shadowPool
	mappings map[iommu.IOVA]shadowMapping

	// Stats.
	CopiedBytes uint64
	PoolBytes   int64 // permanently mapped shadow memory
	PoolGrowths uint64
}

type poolKey struct {
	dev  int
	perm iommu.Perm
}

// shadowPool is a per-(device, permission) free list of shadow buffers,
// bucketed by power-of-two size class from one page up to 64 KiB.
type shadowPool struct {
	free [5][]shadowBuf // class i holds 4 KiB << i
}

type shadowBuf struct {
	pa   mem.PhysAddr
	v    iommu.IOVA
	size int
}

type shadowMapping struct {
	buf    shadowBuf
	origPA mem.PhysAddr
	size   int // caller's transfer size
	class  int
	key    poolKey
}

// NewShadowScheme builds the shadow-buffer scheme. membw may be nil in
// functional tests.
func NewShadowScheme(m *mem.Memory, u *iommu.IOMMU, model *perf.Model, membw *sim.MemController) *ShadowScheme {
	return &ShadowScheme{
		mem:      m,
		u:        u,
		model:    model,
		membw:    membw,
		alloc:    iova.NewAPIAllocator(),
		pools:    make(map[poolKey]*shadowPool),
		mappings: make(map[iommu.IOVA]shadowMapping),
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

// get returns a shadow buffer of the class covering size, growing the pool
// (allocate pages, map them permanently) when the free list is empty.
func (s *ShadowScheme) get(c perf.Charger, key poolKey, size int) (shadowBuf, int, error) {
	class, err := classFor(size)
	if err != nil {
		return shadowBuf{}, 0, err
	}
	pool := s.pools[key]
	if pool == nil {
		pool = &shadowPool{}
		s.pools[key] = pool
	}
	if n := len(pool.free[class]); n > 0 {
		buf := pool.free[class][n-1]
		pool.free[class] = pool.free[class][:n-1]
		return buf, class, nil
	}
	// Grow: allocate an order-class block and map it permanently.
	page, err := s.mem.AllocPages(class, 0)
	if err != nil {
		return shadowBuf{}, 0, err
	}
	bytes := mem.PageSize << class
	pa := page.PFN().Addr()
	s.mem.Zero(pa, bytes)
	v, err := s.alloc.Alloc(bytes)
	if err != nil {
		s.mem.FreePages(page, class)
		return shadowBuf{}, 0, err
	}
	if err := s.u.Map(key.dev, v, pa, bytes, key.perm); err != nil {
		s.alloc.Free(v)
		s.mem.FreePages(page, class)
		return shadowBuf{}, 0, err
	}
	s.PoolBytes += int64(bytes)
	s.PoolGrowths++
	perf.Charge(c, s.model.MapCycles) // one-time mapping cost
	return shadowBuf{pa: pa, v: v, size: bytes}, class, nil
}

func (s *ShadowScheme) Map(c perf.Charger, dev int, pa mem.PhysAddr, size int, dir Direction) (iommu.IOVA, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	perf.Charge(c, s.model.ShadowMgmtCycles)
	key := poolKey{dev: dev, perm: dir.Perm()}
	buf, class, err := s.get(c, key, size)
	if err != nil {
		return 0, err
	}
	if dir == ToDevice || dir == Bidirectional {
		// Stage the payload into the shadow buffer: the extra copy.
		s.mem.Copy(buf.pa, pa, size)
		s.CopiedBytes += uint64(size)
		perf.CPUCopy(c, s.membw, size, s.model.ShadowTXCopyCyclesPerByte, s.model.ShadowCopyMemFraction)
	}
	s.mappings[buf.v] = shadowMapping{buf: buf, origPA: pa, size: size, class: class, key: key}
	return buf.v, nil
}

func (s *ShadowScheme) Unmap(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	perf.Charge(c, s.model.ShadowMgmtCycles)
	m, ok := s.mappings[v]
	if !ok {
		return fmt.Errorf("dmaapi: shadow unmap of unknown iova %#x", v)
	}
	delete(s.mappings, v)
	if dir == FromDevice || dir == Bidirectional {
		// Copy the received data out of the shadow into the caller's
		// buffer: the RX-side extra copy.
		s.mem.Copy(m.origPA, m.buf.pa, m.size)
		s.CopiedBytes += uint64(m.size)
		perf.CPUCopy(c, s.membw, m.size, s.model.ColdCopyCyclesPerByte, s.model.ShadowCopyMemFraction)
	}
	// Recycle the shadow buffer; its mapping stays alive forever, which
	// is the whole point: no IOTLB invalidation is ever needed.
	s.pools[m.key].free[m.class] = append(s.pools[m.key].free[m.class], m.buf)
	return nil
}

// LiveMappings reports outstanding shadow mappings (tests).
func (s *ShadowScheme) LiveMappings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mappings)
}
