// Package dmaapi implements the kernel DMA mapping API (dma_map/dma_unmap)
// together with the four baseline IOMMU protection schemes the paper
// evaluates against (Table 1):
//
//   - off:      IOMMU in passthrough; no protection, no overhead.
//   - strict:   unmap removes the mapping and synchronously invalidates the
//     IOTLB — secure at page granularity but slow (ATC'15 [34]).
//   - deferred: unmap batches invalidations (250 entries or 10 ms),
//     leaving a vulnerability window — Linux's default.
//   - shadow:   DMA is restricted to a permanently mapped shadow pool and
//     every transfer is copied through it (ASPLOS'16 [29]) —
//     full byte-granularity protection, paid in copies.
//
// DAMN itself is not a scheme here: it interposes on this API (§5.3 of the
// paper) through the Interposer hook and falls back to whichever scheme is
// configured for non-DAMN buffers.
package dmaapi

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// Direction of a DMA transfer, as in the kernel's dma_data_direction.
type Direction int

const (
	// ToDevice: the device reads the buffer (transmit).
	ToDevice Direction = iota
	// FromDevice: the device writes the buffer (receive).
	FromDevice
	// Bidirectional transfers.
	Bidirectional
)

func (d Direction) String() string {
	switch d {
	case ToDevice:
		return "to-device"
	case FromDevice:
		return "from-device"
	default:
		return "bidirectional"
	}
}

// Perm returns the IOMMU permission a direction requires.
func (d Direction) Perm() iommu.Perm {
	switch d {
	case ToDevice:
		return iommu.PermRead
	case FromDevice:
		return iommu.PermWrite
	default:
		return iommu.PermRW
	}
}

// Interposer lets a higher-level allocator (DAMN) intercept map/unmap calls
// for buffers it owns, per §5.3: the networking stack keeps calling the
// standard DMA API, and DAMN short-circuits it for its own buffers.
type Interposer interface {
	// MapHook returns (iova, true) if the buffer at pa is owned by the
	// interposer and already has a live mapping; (0, false) otherwise.
	MapHook(c perf.Charger, dev int, pa mem.PhysAddr, size int, dir Direction) (iommu.IOVA, bool)
	// UnmapHook returns true if the IOVA belongs to the interposer (in
	// which case nothing needs tearing down).
	UnmapHook(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) bool
}

// Scheme is one IOMMU protection policy plugged into the Engine.
type Scheme interface {
	Name() string
	// Map makes [pa, pa+size) DMAable by dev and returns the DMA address.
	Map(c perf.Charger, dev int, pa mem.PhysAddr, size int, dir Direction) (iommu.IOVA, error)
	// Unmap revokes a mapping returned by Map.
	Unmap(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) error
}

// Engine is the DMA API entry point drivers call. It tracks the Fig 9
// page-exposure statistics and dispatches to the interposer or the scheme.
type Engine struct {
	Sim    *sim.Engine
	Mem    *mem.Memory
	IOMMU  *iommu.IOMMU
	Model  *perf.Model
	scheme Scheme

	interposer Interposer
	inj        *faults.Injector

	// everDMA tracks distinct physical frames that have ever been
	// exposed to a device through this API (Fig 9's monotone curve).
	everDMA      []uint64
	everDMACount int64

	// MapCalls / UnmapCalls count API operations.
	MapCalls   uint64
	UnmapCalls uint64

	// Observability (nil-safe handles; see SetStats).
	mapC     *stats.Counter
	unmapC   *stats.Counter
	ipMapC   *stats.Counter
	ipUnmapC *stats.Counter
	sgMapC   *stats.Counter
	sgUnmapC *stats.Counter
	everDMAG *stats.Gauge
}

// statsSink is implemented by schemes that export their own metrics.
type statsSink interface {
	SetStats(r *stats.Registry)
}

// SetStats attaches a metrics registry. Map/unmap counters carry the active
// scheme's name so runs under different protection schemes stay
// distinguishable in merged snapshots; interposed operations (DAMN fast
// path) are counted separately because they bypass the scheme entirely.
func (e *Engine) SetStats(r *stats.Registry) {
	name := e.scheme.Name()
	e.mapC = r.Counter("dmaapi", "maps_"+name)
	e.unmapC = r.Counter("dmaapi", "unmaps_"+name)
	e.ipMapC = r.Counter("dmaapi", "maps_interposed")
	e.ipUnmapC = r.Counter("dmaapi", "unmaps_interposed")
	e.sgMapC = r.Counter("dmaapi", "sg_map_entries")
	e.sgUnmapC = r.Counter("dmaapi", "sg_unmap_entries")
	e.everDMAG = r.Gauge("dmaapi", "ever_dma_pages")
	if s, ok := e.scheme.(statsSink); ok {
		s.SetStats(r)
	}
}

// NewEngine builds the DMA API over the given machine pieces.
func NewEngine(se *sim.Engine, m *mem.Memory, u *iommu.IOMMU, model *perf.Model, scheme Scheme) *Engine {
	return &Engine{
		Sim:     se,
		Mem:     m,
		IOMMU:   u,
		Model:   model,
		scheme:  scheme,
		everDMA: make([]uint64, (m.NumPages()+63)/64),
	}
}

// Scheme returns the active protection scheme.
func (e *Engine) Scheme() Scheme { return e.scheme }

// SetInterposer registers the DAMN hook.
func (e *Engine) SetInterposer(i Interposer) { e.interposer = i }

// SetFaults attaches the machine's fault-injection plane: injected IOVA
// exhaustion makes Map fail with an error wrapping iova.ErrExhausted, the
// same failure a genuinely full address space produces.
func (e *Engine) SetFaults(inj *faults.Injector) { e.inj = inj }

// Map is dma_map: it passes ownership of [pa, pa+size) to the device and
// returns the DMA address the driver must program into the device.
func (e *Engine) Map(c perf.Charger, dev int, pa mem.PhysAddr, size int, dir Direction) (iommu.IOVA, error) {
	if size <= 0 {
		return 0, fmt.Errorf("dmaapi: bad map size %d", size)
	}
	e.MapCalls++
	e.recordExposure(pa, size)
	if e.inj.Should(faults.IOVAExhaust) {
		return 0, fmt.Errorf("dmaapi: %w (injected) mapping %d bytes for dev %d",
			iova.ErrExhausted, size, dev)
	}
	if ip := e.interposer; ip != nil {
		if v, ok := ip.MapHook(c, dev, pa, size, dir); ok {
			e.ipMapC.Inc()
			return v, nil
		}
	}
	e.mapC.Inc()
	return e.scheme.Map(c, dev, pa, size, dir)
}

// Unmap is dma_unmap: the driver passes back the DMA address it received
// from Map once the device is done with the buffer.
func (e *Engine) Unmap(c perf.Charger, dev int, v iommu.IOVA, size int, dir Direction) error {
	e.UnmapCalls++
	// An injected unmap failure models dma_unmap detecting inconsistent
	// mapping state (e.g. a function-level reset tore the domain down under
	// the driver). It fires before the interposer so DAMN buffers hit the
	// same driver error path — for them the failure is spurious, which is
	// exactly what the driver's release-not-leak handling relies on.
	if e.inj.Should(faults.UnmapFail) {
		return fmt.Errorf("dmaapi: unmap failed (injected) iova=%#x dev=%d", v, dev)
	}
	if ip := e.interposer; ip != nil {
		if ip.UnmapHook(c, dev, v, size, dir) {
			e.ipUnmapC.Inc()
			return nil
		}
	}
	e.unmapC.Inc()
	return e.scheme.Unmap(c, dev, v, size, dir)
}

// DeviceResetter is implemented by schemes that hold per-device state a
// function-level reset must retire (deferred's batched invalidations, whose
// IOVA ranges only recycle at flush time).
type DeviceResetter interface {
	ResetDevice(c perf.Charger, dev int)
}

// ResetDevice retires scheme state referencing the device's (dying) domain.
// The recovery supervisor calls it during quarantine, before the domain is
// detached, so that batched unmaps flush while their invalidations can
// still be attributed and IOVA allocator slots come back for the rebuilt
// device.
func (e *Engine) ResetDevice(c perf.Charger, dev int) {
	if r, ok := e.scheme.(DeviceResetter); ok {
		r.ResetDevice(c, dev)
	}
}

// recordExposure marks the frames of [pa, pa+size) as having held DMA data.
func (e *Engine) recordExposure(pa mem.PhysAddr, size int) {
	first := mem.PFNOf(pa)
	last := mem.PFNOf(pa + mem.PhysAddr(size-1))
	for pfn := first; pfn <= last; pfn++ {
		w, b := pfn/64, pfn%64
		if e.everDMA[w]&(1<<b) == 0 {
			e.everDMA[w] |= 1 << b
			e.everDMACount++
		}
	}
	e.everDMAG.Set(e.everDMACount)
}

// EverDMAPages returns how many distinct physical pages have ever been
// handed to a device (Fig 9, "ever mapped").
func (e *Engine) EverDMAPages() int64 { return e.everDMACount }
