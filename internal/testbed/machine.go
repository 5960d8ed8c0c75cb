// Package testbed assembles complete simulated machines — memory, IOMMU,
// cores, DMA API with the selected protection scheme, optional DAMN
// deployment, NIC and driver. The workload and experiment packages build
// every evaluation scenario of the paper on top of these machines.
package testbed

import (
	"fmt"

	damncore "github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// Scheme selects the IOMMU protection configuration of a machine, covering
// every evaluated system of §6 plus the Table 3 analysis variants.
type Scheme string

const (
	// SchemeOff: IOMMU disabled (passthrough) — no protection.
	SchemeOff Scheme = "iommu-off"
	// SchemeStrict: synchronous IOTLB invalidation on every unmap.
	SchemeStrict Scheme = "strict"
	// SchemeDeferred: batched invalidations (Linux default).
	SchemeDeferred Scheme = "deferred"
	// SchemeShadow: DMA shadow buffers (ASPLOS'16).
	SchemeShadow Scheme = "shadow"
	// SchemeDAMN: the paper's system — DAMN allocator + interposition,
	// falling back to deferred for non-DAMN buffers (§5.3).
	SchemeDAMN Scheme = "damn"
	// SchemeDAMNHugeDense: Table 3 variant — dense huge-page IOVAs.
	SchemeDAMNHugeDense Scheme = "damn+huge+dense"
	// SchemeDAMNNoIOMMU: Table 3 variant — DAMN software stack with the
	// IOMMU in passthrough (isolates IOMMU hardware overheads).
	SchemeDAMNNoIOMMU Scheme = "damn-without-iommu"
	// SchemeDAMNSingleCtx: ablation — one DMA-cache copy per core with
	// interrupt disabling instead of §5.4's two physical copies.
	SchemeDAMNSingleCtx Scheme = "damn-single-context"
	// SchemeDAMNNoCache: ablation — no chunk caching; every buffer
	// builds and tears down its mapping.
	SchemeDAMNNoCache Scheme = "damn-no-dma-cache"
	// SchemeBypassRaw: kernel-bypass polling path with permanent identity
	// mappings and no IOMMU protection — the DPDK baseline the paper never
	// got compared against.
	SchemeBypassRaw Scheme = "bypass-raw"
	// SchemeBypassProt: the same bypass rings behind a per-app IOMMU
	// domain whose mappings are registered once at setup (CAPIO-style
	// protected bypass).
	SchemeBypassProt Scheme = "bypass-prot"
)

// AllSchemes is the comparison set of Fig 1/4/5/6/7.
var AllSchemes = []Scheme{SchemeOff, SchemeDeferred, SchemeStrict, SchemeShadow, SchemeDAMN}

// BypassSchemes is the kernel-bypass family — kept out of AllSchemes so the
// paper figures stay exactly the paper's comparison; the bypass and scaling
// figures append these columns explicitly.
var BypassSchemes = []Scheme{SchemeBypassRaw, SchemeBypassProt}

// IsBypass reports whether a scheme uses the polling bypass data path.
func IsBypass(s Scheme) bool { return s == SchemeBypassRaw || s == SchemeBypassProt }

// MachineConfig describes a testbed instance.
type MachineConfig struct {
	Scheme   Scheme
	Model    *perf.Model
	MemBytes int64
	Seed     int64
	// RingSize is RX descriptors per ring (per core).
	RingSize int
	// Cores overrides Model.NumCores (0 = use model).
	Cores int
	// NoNIC skips NIC construction (NVMe-only experiments).
	NoNIC bool
	// Tracer, when non-nil, receives Chrome trace_event spans for every
	// simulated task; each machine gets its own trace process.
	Tracer *stats.Tracer
	// Faults, when non-nil, arms the deterministic fault-injection plane
	// across every layer of the machine (see internal/faults). Nil keeps
	// every fault point a single predictable-false nil check — the
	// fault-free numbers are bit-identical to a build without the plane.
	Faults *faults.Config
	// Engine, when non-nil, builds the machine on an existing event
	// engine instead of a private one — how a topology places each
	// machine on its cluster shard. Seed is ignored in that case (the
	// shard's engine already owns the RNG).
	Engine *sim.Engine
}

// Machine is one fully assembled testbed.
type Machine struct {
	Cfg    MachineConfig
	Sim    *sim.Engine
	Mem    *mem.Memory
	Slab   *mem.Slab
	IOMMU  *iommu.IOMMU
	Model  *perf.Model
	MemBW  *sim.MemController
	Cores  []*sim.Core
	DMA    *dmaapi.Engine
	Damn   *damncore.DAMN // nil unless a DAMN scheme
	Kernel *netstack.Kernel
	NIC    *device.NIC
	Driver *netstack.Driver

	// Stats collects metrics from every layer of this machine; always
	// non-nil (a handle is a plain field, cheap even when nobody reads it).
	Stats *stats.Registry

	// Faults is the machine's fault-injection plane; nil when Cfg.Faults
	// is nil (injection off).
	Faults *faults.Injector
	// StopWatchdog disarms the driver's recovery watchdog (armed only
	// under fault injection). The watchdog re-arms itself every period, so
	// a drain-to-idle run must stop it first. Nil when faults are off.
	StopWatchdog func()

	// Deferred is non-nil when the active (or fallback) scheme batches
	// invalidations — exposed for window inspection.
	Deferred *dmaapi.DeferredScheme
}

// NICDeviceID is the NIC's IOMMU identity in every machine.
const NICDeviceID = 1

// NVMeDeviceID is the SSD's identity.
const NVMeDeviceID = 2

// BypassDeviceID is the DMA identity of the kernel-bypass application's
// queue pair (an SR-IOV VF handed to user space); bypass rings re-bind to
// it so their transfers translate — and fault — in the app's own domain.
// Distinct from the tenant VF range (which starts at 8).
const BypassDeviceID = 3

// NewMachine assembles a testbed under the given scheme.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if cfg.Model == nil {
		cfg.Model = perf.Default28Core()
	}
	model := cfg.Model
	if cfg.Cores > 0 {
		model.NumCores = cfg.Cores
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 1 << 30
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 64
	}
	m, err := mem.New(mem.Config{TotalBytes: cfg.MemBytes, NUMANodes: model.NumNodes})
	if err != nil {
		return nil, err
	}
	se := cfg.Engine
	if se == nil {
		se = sim.NewEngine(cfg.Seed)
	}
	u := iommu.New(m)
	membw := sim.NewMemController(model.MemBWBytesPerSec)
	membw.Attach(se)

	// Cores split evenly across NUMA nodes (14+14 on the testbed).
	var cores []*sim.Core
	perNode := model.NumCores / model.NumNodes
	if perNode == 0 {
		perNode = model.NumCores
	}
	coreNodes := make([]int, model.NumCores)
	for i := 0; i < model.NumCores; i++ {
		node := i / perNode
		if node >= model.NumNodes {
			node = model.NumNodes - 1
		}
		coreNodes[i] = node
		cores = append(cores, sim.NewCore(se, i, node, model.CoreHz))
	}

	ma := &Machine{
		Cfg: cfg, Sim: se, Mem: m, Slab: mem.NewSlab(m), IOMMU: u,
		Model: model, MemBW: membw, Cores: cores,
		Stats: stats.NewRegistry(),
	}
	se.SetStats(ma.Stats)
	u.SetStats(ma.Stats)
	// Blocked DMAs whose target decodes as another device's DAMN region are
	// classified as neighbour probes (iommu cannot import iova directly).
	u.SetProbeClassifier(func(dev int, v iommu.IOVA) (int, bool) {
		enc, ok := iova.Decode(v)
		if !ok {
			return 0, false
		}
		return enc.Dev, true
	})
	if cfg.Faults != nil {
		ma.Faults = faults.New(*cfg.Faults)
		ma.Faults.SetStats(ma.Stats)
		m.SetFaults(ma.Faults)
		u.SetFaults(ma.Faults)
	}
	if cfg.Tracer != nil {
		pid := cfg.Tracer.Process(string(cfg.Scheme))
		for _, c := range cores {
			cfg.Tracer.ThreadName(pid, c.ID, fmt.Sprintf("core-%d", c.ID))
		}
		se.SetTracer(cfg.Tracer, pid)
	}

	nicDomain := u.AttachDevice(NICDeviceID)
	u.AttachDevice(NVMeDeviceID)

	// Protection scheme + optional DAMN deployment.
	var scheme dmaapi.Scheme
	useDamn := false
	switch cfg.Scheme {
	case SchemeOff:
		nicDomain.Passthrough = true
		u.Domain(NVMeDeviceID).Passthrough = true
		scheme = dmaapi.NewOffScheme()
	case SchemeStrict:
		scheme = dmaapi.NewStrictScheme(u, model)
	case SchemeDeferred, "":
		d := dmaapi.NewDeferredScheme(se, u, model)
		scheme = d
		ma.Deferred = d
	case SchemeShadow:
		scheme = dmaapi.NewShadowScheme(m, u, model, membw)
	case SchemeDAMN, SchemeDAMNHugeDense, SchemeDAMNSingleCtx, SchemeDAMNNoCache:
		// DAMN falls back to the deferred scheme for non-DAMN buffers
		// (§5.3: compatible with any DMA-API-based scheme; deferred is
		// the Linux default).
		d := dmaapi.NewDeferredScheme(se, u, model)
		scheme = d
		ma.Deferred = d
		useDamn = true
	case SchemeDAMNNoIOMMU:
		// Table 3 analysis variant: the full DAMN software stack with
		// the IOMMU in passthrough — dma_map returns physical
		// addresses, isolating DAMN's software overhead from IOMMU
		// hardware effects.
		nicDomain.Passthrough = true
		u.Domain(NVMeDeviceID).Passthrough = true
		scheme = dmaapi.NewOffScheme()
		useDamn = true
	case SchemeBypassRaw:
		// DPDK baseline: everything in passthrough, including the bypass
		// queue pair's own DMA identity — permanent identity mappings,
		// zero protection.
		nicDomain.Passthrough = true
		u.Domain(NVMeDeviceID).Passthrough = true
		u.AttachDevice(BypassDeviceID).Passthrough = true
		scheme = dmaapi.NewOffScheme()
	case SchemeBypassProt:
		// Protected bypass: the app's queue pair gets a real per-app
		// domain (the bypass driver registers its hugepage pool in it
		// once at setup); the kernel's own control path keeps the Linux
		// default deferred scheme.
		u.AttachDevice(BypassDeviceID)
		d := dmaapi.NewDeferredScheme(se, u, model)
		scheme = d
		ma.Deferred = d
	default:
		return nil, fmt.Errorf("testbed: unknown scheme %q", cfg.Scheme)
	}

	ma.DMA = dmaapi.NewEngine(se, m, u, model, scheme)
	ma.DMA.SetStats(ma.Stats)
	ma.DMA.SetFaults(ma.Faults)

	if useDamn {
		dcfg := damncore.DefaultConfig(coreNodes)
		switch cfg.Scheme {
		case SchemeDAMNHugeDense:
			dcfg.DenseHugeIOVA = true
		case SchemeDAMNSingleCtx:
			dcfg.SingleContext = true
		case SchemeDAMNNoCache:
			dcfg.NoDMACache = true
		}
		d, err := damncore.New(m, u, model, dcfg)
		if err != nil {
			return nil, err
		}
		ma.Damn = d
		d.SetStats(ma.Stats)
		// §5.4: under memory pressure the OS invokes DAMN's shrinker
		// to reclaim chunks cached in magazines and the depot.
		m.RegisterShrinker(func() int64 { return d.Shrink(damncore.Ctx{}) })
		if cfg.Scheme != SchemeDAMNNoIOMMU {
			// With the IOMMU off, dma_map must return physical
			// addresses, so the interposer stays out of the path.
			ma.DMA.SetInterposer(&damncore.Interposer{D: d})
		}
	}

	ma.Kernel = &netstack.Kernel{
		Sim: se, Mem: m, Slab: ma.Slab, IOMMU: u, DMA: ma.DMA,
		Damn: ma.Damn, Model: model, MemBW: membw, Cores: cores,
	}
	ma.Kernel.SetStats(ma.Stats)

	if !cfg.NoNIC {
		ma.NIC = device.NewNIC(se, u, model, membw, cores, device.NICConfig{
			ID: NICDeviceID, Ports: model.NICPorts,
			RingSize: cfg.RingSize, TxRing: 256, Rings: model.NumCores,
			WireGbps: model.WireGbpsPerPort, PCIeGbps: model.PCIeGbpsPerDir,
		})
		ma.NIC.SetStats(ma.Stats)
		ma.NIC.SetFaults(ma.Faults)
		ma.Driver = netstack.NewDriver(ma.Kernel, ma.NIC)
		ma.Driver.SetStats(ma.Stats)
		ma.Driver.OnTxDone = netstack.DispatchTxDone
		if ma.Faults != nil {
			// Lost completion interrupts and shrunken rings recover via
			// the driver's watchdog poll; armed only under injection so
			// the fault-free event stream is untouched.
			ma.StopWatchdog = ma.Driver.EnableWatchdog()
		}
	}
	return ma, nil
}

// StatsSnapshot captures the machine's metrics at the current simulated time.
func (ma *Machine) StatsSnapshot() stats.Snapshot { return ma.Stats.Snapshot() }

// Close hands the machine's simulated-RAM backing to the mem package's
// recycling pool once a run is over and its results are extracted. Purely a
// host-side optimisation (machine construction otherwise re-zeroes hundreds
// of MiB each time); optional, idempotent, and any memory access after Close
// panics.
func (ma *Machine) Close() { ma.Mem.Release() }

// FillAllRings primes every RX ring before a run. With fault injection on,
// filling is best-effort: an injected allocation failure shrinks a ring
// the watchdog later tops back up, instead of aborting the run.
func (ma *Machine) FillAllRings() error {
	var firstErr error
	for ring := range ma.Cores {
		ring := ring
		ma.Cores[ring].Submit(false, func(t *sim.Task) {
			if err := ma.Driver.FillRing(t, ring); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	ma.Sim.Run(ma.Sim.Now()) // execute the fill tasks queued at current time
	if ma.Faults != nil {
		return nil
	}
	return firstErr
}

// SchemeName returns the human name of the machine's configuration.
func (ma *Machine) SchemeName() string { return string(ma.Cfg.Scheme) }
