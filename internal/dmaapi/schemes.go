package dmaapi

import (
	"fmt"
	"slices"
	"sort"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// OffScheme is iommu-off: domains run in passthrough, Map is the identity
// (DMA address == physical address) and Unmap does nothing. No protection.
type OffScheme struct{}

// NewOffScheme puts every attached device the caller registers later into
// passthrough; AttachPassthrough must be used for each device.
func NewOffScheme() *OffScheme { return &OffScheme{} }

func (*OffScheme) Name() string { return "iommu-off" }

func (*OffScheme) Map(c perf.Charger, dev int, pa mem.PhysAddr, size int, dir Direction) (iommu.IOVA, error) {
	return iommu.IOVA(pa), nil
}

func (*OffScheme) Unmap(perf.Charger, int, iommu.IOVA, int, Direction) error { return nil }

// mappingScheme is the shared machinery of strict and deferred: a real IOVA
// allocator plus IOMMU page-table updates on every map/unmap. What differs
// is invalidation policy, so each defines its own Unmap.
type mappingScheme struct {
	u     *iommu.IOMMU
	model *perf.Model
	alloc *iova.Allocator

	// invLock is the invalidation-queue spinlock (the strict-mode
	// bottleneck of §4.1). In strict mode the core keeps it held while
	// the hardware executes the invalidation command, so the lock also
	// serializes the command stream.
	invLock *sim.SpinLock

	// Observability (nil-safe handles; see SetStats).
	mapCyc   *stats.FloatCounter
	unmapCyc *stats.FloatCounter
}

// SetStats attributes the cycles this scheme charges to perf cost
// categories, so snapshots break overhead down by map vs. unmap work.
func (s *mappingScheme) SetStats(r *stats.Registry) {
	s.mapCyc = r.FloatCounter("perf", "cycles_dma_map")
	s.unmapCyc = r.FloatCounter("perf", "cycles_dma_unmap")
}

// FrameBytes is the mapping granularity of the dynamic schemes: the mlx5
// driver maps/unmaps MTU-sized (9000 B, jumbo) frame buffers, so one 64 KiB
// LRO segment costs ~8 map/unmap/invalidate operations. The reproduction
// keeps one *functional* mapping per buffer but bills the per-frame costs,
// which is what makes strict collapse at multi-gigabit rates while the
// same scheme keeps up with NVMe's one-mapping-per-command pattern (§6.5).
const FrameBytes = 9000

// frames returns the number of driver mapping operations a buffer costs:
// the driver maps MTU-sized frame buffers on receive, and TSO transmit
// segments go down as scatter/gather lists with one entry per frame-sized
// frag — either way one 64 KiB buffer is ~8 operations, while sub-frame
// buffers (NVMe blocks, memcached chunks) are one.
func frames(size int, dir Direction) int {
	n := (size + FrameBytes - 1) / FrameBytes
	if n < 1 {
		n = 1
	}
	return n
}

func newMappingScheme(u *iommu.IOMMU, model *perf.Model) *mappingScheme {
	return &mappingScheme{
		u:       u,
		model:   model,
		alloc:   iova.NewAPIAllocator(),
		invLock: &sim.SpinLock{},
	}
}

// Map allocates an IOVA range and installs its page-table entries.
func (s *mappingScheme) Map(c perf.Charger, dev int, pa mem.PhysAddr, size int, dir Direction) (iommu.IOVA, error) {
	perf.ChargeCat(c, s.mapCyc, s.model.MapCycles*float64(frames(size, dir)))
	// Page-align the mapping: the IOMMU maps whole pages, which is why
	// DMA-API protection is only page-granular (§4: a sub-page buffer
	// exposes its page neighbours).
	off := pa & mem.PhysAddr(mem.PageMask)
	base := pa - off
	span := int(off) + size
	v, err := s.alloc.Alloc(span)
	if err != nil {
		return 0, err
	}
	if err := s.u.Map(dev, v, base, span, dir.Perm()); err != nil {
		s.alloc.Free(v)
		return 0, err
	}
	return v + iommu.IOVA(off), nil
}

func (s *mappingScheme) unmapCommon(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) (base iommu.IOVA, span int, err error) {
	perf.ChargeCat(c, s.unmapCyc, s.model.UnmapCycles*float64(frames(size, dir)))
	off := v & iommu.IOVA(mem.PageMask)
	base = v - off
	span = s.alloc.SizeOf(base)
	if span == 0 {
		return 0, 0, fmt.Errorf("dmaapi: unmap of unknown iova %#x", v)
	}
	if int(off)+size > span {
		return 0, 0, fmt.Errorf("dmaapi: unmap size %d exceeds mapping span %d", size, span)
	}
	if err := s.u.Unmap(dev, base, span); err != nil {
		return 0, 0, err
	}
	return base, span, nil
}

// StrictScheme synchronously invalidates the IOTLB on every unmap: the
// device provably cannot touch the buffer afterwards, at the price of the
// invalidation latency and the shared lock on every DMA (§4.1).
type StrictScheme struct {
	*mappingScheme
}

// NewStrictScheme builds strict protection over the IOMMU.
func NewStrictScheme(u *iommu.IOMMU, model *perf.Model) *StrictScheme {
	return &StrictScheme{newMappingScheme(u, model)}
}

func (*StrictScheme) Name() string { return "strict" }

func (s *StrictScheme) Unmap(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) error {
	base, span, err := s.unmapCommon(c, dev, v, size, dir)
	if err != nil {
		return err
	}
	// Queue one invalidation per mapped frame under the global lock,
	// holding the lock until the hardware executes each command
	// ("waiting for the invalidation to complete", §4.1) — the lock
	// serializes both the CPU bookkeeping and the hardware latency.
	// Under multi-core contention the hold inflates with the lock's
	// utilization (cache-line bouncing between sockets), which is what
	// throttles strict at 100 Gb/s networking rates (§4.1, Fig 5) while
	// a 12-thread NVMe workload still keeps up (Fig 11).
	if task, ok := c.(*sim.Task); ok && task != nil {
		for f := 0; f < frames(span, dir); f++ {
			base := task.Core().CyclesToTime(s.model.InvLockHoldCycles) + s.model.IOTLBInvLatency
			rho := s.invLock.Utilization(task.Now())
			hold := base + sim.Time(float64(base)*s.model.InvLockCongestionFactor*rho)
			s.invLock.LockFor(task, hold)
		}
	}
	// Strict: submit the invalidation and synchronously drain the queue
	// (the lock hold above models the wait).
	if err := s.u.InvQ().Submit(iommu.Command{Kind: iommu.InvRange, Dev: dev, Base: base, Size: span}); err != nil {
		return fmt.Errorf("dmaapi: strict invalidation submit: %w", err)
	}
	s.u.InvQ().DrainRetry(c, s.model.ITETimeout)
	s.alloc.Free(base)
	return nil
}

// DeferredScheme batches IOTLB invalidations: unmap clears the page tables
// and queues the flush, which runs after DeferredBatchSize unmaps or
// DeferredFlushInterval, whichever comes first. Until the flush, the device
// can still use stale IOTLB entries and the IOVA range is not reused —
// the Linux-default trade of security for performance (§4.1).
type DeferredScheme struct {
	*mappingScheme
	se *sim.Engine

	pending  []deferredEntry
	timerSet bool
	flushFn  func() // the flush timer's callback, bound once
	order    []int  // the flush's device list, reused across flushes
	Flushes  uint64
}

type deferredEntry struct {
	dev  int
	base iommu.IOVA
	span int
}

// NewDeferredScheme builds Linux's default protection mode.
func NewDeferredScheme(se *sim.Engine, u *iommu.IOMMU, model *perf.Model) *DeferredScheme {
	s := &DeferredScheme{mappingScheme: newMappingScheme(u, model), se: se}
	s.flushFn = s.timerFlush
	return s
}

func (*DeferredScheme) Name() string { return "deferred" }

func (s *DeferredScheme) Unmap(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) error {
	base, span, err := s.unmapCommon(c, dev, v, size, dir)
	if err != nil {
		return err
	}
	// One batch entry per frame, as the driver unmaps frame buffers.
	perf.Charge(c, s.model.DeferredEnqueueCycles*float64(frames(span, dir)))
	for f := frames(span, dir); f > 1; f-- {
		s.pending = append(s.pending, deferredEntry{dev: dev})
	}
	s.pending = append(s.pending, deferredEntry{dev: dev, base: base, span: span})
	if len(s.pending) >= s.model.DeferredBatchSize {
		s.Flush(c)
		return nil
	}
	if !s.timerSet && s.se != nil {
		s.timerSet = true
		s.se.After(s.model.DeferredFlushInterval, s.flushFn)
	}
	return nil
}

// timerFlush runs the batch when DeferredFlushInterval expires first.
func (s *DeferredScheme) timerFlush() {
	s.timerSet = false
	s.Flush(nil)
}

// ResetDevice implements dmaapi.DeviceResetter: a device reset flushes the
// whole batch window now. The window may hold entries for other devices
// too; flushing them early is always safe (it only narrows their
// vulnerability window) and keeps the batch bookkeeping simple.
func (s *DeferredScheme) ResetDevice(c perf.Charger, dev int) {
	s.Flush(c)
}

// PendingInvalidations reports the current window size: unmapped buffers
// the device can still reach.
func (s *DeferredScheme) PendingInvalidations() int { return len(s.pending) }

// Flush runs the batched invalidations now. A full batch, the flush timer
// and a device reset call it.
func (s *DeferredScheme) Flush(c perf.Charger) {
	if len(s.pending) == 0 {
		return
	}
	perf.Charge(c, s.model.DeferredFlushCycles)
	// One batched hardware command invalidates the affected domains;
	// deferred does not wait for its completion.
	if task, ok := c.(*sim.Task); ok && task != nil {
		s.invLock.Lock(task, s.model.InvLockHoldCycles)
	}
	s.order = s.order[:0]
	for _, e := range s.pending {
		if !slices.Contains(s.order, e.dev) {
			s.order = append(s.order, e.dev)
		}
	}
	sort.Ints(s.order) // invalidation order is simulation-visible; keep it deterministic
	for _, dev := range s.order {
		if err := s.u.InvQ().Submit(iommu.Command{Kind: iommu.InvDomain, Dev: dev}); err != nil {
			// Domain invalidations are always well-formed and a full
			// queue drains synchronously, so a rejection here is a bug.
			panic("dmaapi: deferred invalidation submit failed: " + err.Error())
		}
	}
	s.u.InvQ().DrainRetry(c, s.model.ITETimeout)
	// Only now do the IOVA ranges become reusable. (Placeholder frame
	// entries carry no base.)
	for _, e := range s.pending {
		if e.base != 0 {
			s.alloc.Free(e.base)
		}
	}
	s.pending = s.pending[:0]
	s.Flushes++
}
