// Package perf holds the performance model of the reproduction: the
// calibrated cycle costs, hardware latencies and bandwidth ceilings that the
// simulated kernel charges against simulated cores while executing the real
// data structures.
//
// Calibration philosophy (see DESIGN.md §3): the *baseline* workload costs
// (what an unprotected kernel spends per segment) are calibrated so that the
// iommu-off configuration lands near the paper's absolute numbers; the
// *protection-scheme* costs are then mechanistic (lock holds, hardware
// invalidation latency, copy costs), so the relative behaviour of
// strict/deferred/shadow/DAMN — the paper's actual subject — emerges from
// the simulation rather than being dialled in per scheme.
package perf

import (
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// Model is the full parameter set of the simulated testbed.
type Model struct {
	// ---- Machine (matches the paper's evaluation server, §6) ----

	// CoreHz is the core clock: 2 GHz Xeon E5-2660 v4.
	CoreHz float64
	// NumCores across both sockets (2 × 14).
	NumCores int
	// NumNodes is the NUMA node count.
	NumNodes int
	// MemBWBytesPerSec is the memory-controller ceiling the paper measures
	// (§6.1: "≈80 GB/s, which is the advertised limit").
	MemBWBytesPerSec float64
	// PCIeGbpsPerDir bounds NIC DMA per direction (§6: PCIe 3.0 limits to
	// 128 Gb/s; in practice 106 Gb/s was the best observed).
	PCIeGbpsPerDir float64
	// PCIeAggGbps bounds combined RX+TX DMA payload over the bus (the
	// bidirectional practical ceiling behind Fig 6's iommu-off result).
	PCIeAggGbps float64
	// WireGbpsPerPort is the port speed (ConnectX-4: 100 Gb/s, 2 ports).
	WireGbpsPerPort float64
	// NICPorts is the number of NIC ports (each full duplex).
	NICPorts int

	// ---- Baseline per-segment workload costs ----

	// SegmentSize is the TSO/LRO aggregation size (64 KiB).
	SegmentSize int
	// RXSegCycles is the fixed kernel cost to receive one aggregated
	// segment (driver, skbuff, TCP, socket) excluding copies, calibrated
	// against Fig 4a: one 2 GHz core drives 67 Gb/s RX with iommu-off.
	RXSegCycles float64
	// TXSegCycles is the transmit-side equivalent (Fig 4b: 74 Gb/s).
	TXSegCycles float64
	// AckCycles models the ACK-processing cost a bidirectional stream
	// adds per data segment (§6.1 "ACK segments compete with data
	// segments").
	AckCycles float64
	// WakeupCycles is the scheduler/wakeup cost charged per segment when
	// flows block and wake instead of running hot (multi-instance tests).
	WakeupCycles float64
	// CopyCyclesPerByte is the warm user/kernel copy cost (≈20 GB/s per
	// core at 2 GHz).
	CopyCyclesPerByte float64
	// ColdCopyCyclesPerByte is the RX-side shadow copy-back, which the
	// paper observes is colder in cache than DAMN's in-place buffers
	// (§6.2: shadow copies go "to arbitrary kmalloc()ed kernel buffers
	// that are colder in the cache"). RX shadow buffers are also part of
	// a much larger working set than TX (§6.1), hence the higher cost.
	ColdCopyCyclesPerByte float64
	// ShadowTXCopyCyclesPerByte is the TX-side staging copy into the
	// shadow pool, warmer than the RX side (the source was just written
	// by the user copy).
	ShadowTXCopyCyclesPerByte float64
	// AccessCopyCyclesPerByte is DAMN's TOCTTOU accessor copy. Slightly
	// warmer than the shadow copy-back (§6.2: at full-segment copying
	// DAMN's CPU use stays ~10% below shadow buffers because its source
	// buffers are hotter in cache).
	AccessCopyCyclesPerByte float64
	// SkbAllocCycles / SkbFreeCycles cover skbuff + buffer allocation on
	// the baseline (non-DAMN) path.
	SkbAllocCycles float64
	SkbFreeCycles  float64

	// ---- DMA API / IOMMU protection-scheme costs ----

	// MapCycles is dma_map's CPU cost on the dynamic-mapping paths:
	// IOVA allocation plus page-table updates.
	MapCycles float64
	// UnmapCycles is dma_unmap's CPU cost excluding invalidation.
	UnmapCycles float64
	// IOTLBInvLatency is the hardware execution time of one IOTLB
	// invalidation command; strict mode holds the invalidation-queue
	// lock until it completes ("a costly hardware operation", §6.1).
	IOTLBInvLatency sim.Time
	// InvLockHoldCycles is the uncontended hold time of the invalidation-
	// queue lock.
	InvLockHoldCycles float64
	// InvLockCongestionFactor scales hold-time inflation with the lock's
	// utilization (cache-line bouncing between sockets): effective hold =
	// base × (1 + factor × utilization). This is what makes strict
	// collapse on multi-core networking (§4.1, §6.1) while lower-rate
	// NVMe traffic survives (§6.5).
	InvLockCongestionFactor float64
	// DeferredEnqueueCycles is the cost of batching one invalidation.
	DeferredEnqueueCycles float64
	// DeferredBatchSize and DeferredFlushInterval define deferred mode's
	// flush policy (Linux: 250 entries or 10 ms, §4.1).
	DeferredBatchSize     int
	DeferredFlushInterval sim.Time
	// DeferredFlushCycles is the CPU cost of issuing the batched flush.
	DeferredFlushCycles float64
	// ITETimeout is how long the OS waits for the invalidation queue to
	// drain before declaring a VT-d Invalidation Time-out Error and
	// retrying. Linux waits up to 1 s before giving up; the simulation
	// uses a much shorter window so injected ITEs cost a visible but
	// bounded amount of simulated time.
	ITETimeout sim.Time

	// ---- Shadow-buffer scheme costs ----

	// ShadowMgmtCycles is the shadow pool bookkeeping per map/unmap.
	ShadowMgmtCycles float64

	// ---- Application workload costs (§6 benchmarks) ----

	// MemcachedOpCycles is the server-side cost of one memcached op
	// excluding network processing (hashing, item handling).
	MemcachedOpCycles float64
	// Graph500EdgeCycles, Graph500LatencyCycles and Graph500BytesPerEdge
	// parameterise the BFS co-runner of Fig 2: per-edge compute, the
	// uncontended DRAM access latency its dependent loads pay, and the
	// cache-line traffic each edge contributes.
	Graph500EdgeCycles    float64
	Graph500LatencyCycles float64
	Graph500BytesPerEdge  float64
	// FioPerIOCycles is fio's per-command submit+complete CPU cost.
	FioPerIOCycles float64
	// XorCyclesPerByte is Fig 8's lightweight segment processing.
	XorCyclesPerByte float64

	// ---- DAMN costs ----

	// DamnAllocCycles / DamnFreeCycles are the bump-pointer fast paths.
	DamnAllocCycles float64
	DamnFreeCycles  float64
	// DamnRefillCycles is the magazine/depot path taken when a per-core
	// bump chunk is exhausted.
	DamnRefillCycles float64
	// DamnMapLookupCycles is the dma_map interposition fast path (page-
	// struct walk to the stored IOVA, §5.5).
	DamnMapLookupCycles float64
	// DamnUnmapCheckCycles is the dma_unmap MSB test (§5.3).
	DamnUnmapCheckCycles float64
	// DamnHeaderBytes is the typical header span the TOCTTOU interposer
	// copies on first access (§5.2).
	DamnHeaderBytes int
	// IRQDisableCycles is the cost of a cli/sti pair plus the latency
	// penalty of delayed interrupts — paid per operation by the
	// single-context ablation (§5.4 rejects this design).
	IRQDisableCycles float64
	// ZeroCyclesPerByte is the cost of zeroing freshly allocated chunks
	// (§5.6: every page DAMN takes from the OS is zeroed).
	ZeroCyclesPerByte float64

	// ---- Kernel-bypass (virtio-style polling path) costs ----

	// BypassPollInterval is the busy-poll loop period of the bypass
	// driver's dedicated core: the poll ticker fires this often and the
	// core is charged the full interval whether or not completions were
	// harvested (the honest cost of spinning, DPDK-style).
	BypassPollInterval sim.Time
	// BypassRXSegCycles is the user-space per-segment receive cost on the
	// bypass path: no syscall, no skbuff, no socket — just descriptor
	// bookkeeping and a lean run-to-completion stack.
	BypassRXSegCycles float64
	// VQHarvestCycles is the cost of consuming one used-ring element
	// (index load, descriptor read, ring bookkeeping).
	VQHarvestCycles float64
	// VQPostCycles is the cost of writing one avail-ring descriptor.
	VQPostCycles float64
	// DoorbellCycles is one MMIO doorbell write (uncached, posted); the
	// bypass driver batches posts so this is paid per batch, not per
	// descriptor.
	DoorbellCycles float64
	// BypassHarvestBurst caps how many used-ring elements one poll tick
	// consumes, bounding per-tick work like a NAPI budget.
	BypassHarvestBurst int

	// ---- Device-side translation costs ----

	// IOTLBMissPenalty is the DMA-pipeline delay of one IOTLB miss
	// (a page walk by the IOMMU). With DAMN's metadata-encoded, sparse
	// IOVAs this is what costs the 6.5% of Table 3.
	IOTLBMissPenalty sim.Time

	// ---- Memory-traffic fractions (DDIO / cache locality model) ----

	// NICDMAMemFraction is the fraction of NIC DMA bytes that reach DRAM
	// (the rest hits the LLC via DDIO).
	NICDMAMemFraction float64
	// CopyMemFraction is DRAM traffic per byte of a warm user copy
	// (source usually in LLC; destination write-allocates).
	CopyMemFraction float64
	// ShadowCopyMemFraction is DRAM traffic per byte of the extra shadow
	// staging copy (cold on both sides).
	ShadowCopyMemFraction float64
}

// Default28Core returns the model of the paper's evaluation machine:
// a dual-socket, 28-core, 2 GHz Broadwell server with a dual-port
// 100 Gb/s ConnectX-4.
func Default28Core() *Model {
	return &Model{
		CoreHz:           2e9,
		NumCores:         28,
		NumNodes:         2,
		MemBWBytesPerSec: 80e9,
		PCIeGbpsPerDir:   106,
		PCIeAggGbps:      197,
		WireGbpsPerPort:  100,
		NICPorts:         2,

		SegmentSize: 64 << 10,
		// 67 Gb/s RX on one core = 127.8 k segments/s at 2 GHz
		// ⇒ ~15.6 k cycles per segment all-in; copies cost
		// 65536 B × 0.1 c/B ≈ 6.6 k of that.
		RXSegCycles:               8400,
		TXSegCycles:               7000,
		AckCycles:                 2600,
		WakeupCycles:              5200,
		CopyCyclesPerByte:         0.10,
		ColdCopyCyclesPerByte:     0.36,
		ShadowTXCopyCyclesPerByte: 0.13,
		AccessCopyCyclesPerByte:   0.33,
		SkbAllocCycles:            420,
		SkbFreeCycles:             260,

		MapCycles:               150,
		UnmapCycles:             100,
		IOTLBInvLatency:         220 * sim.Nanosecond,
		InvLockHoldCycles:       100,
		InvLockCongestionFactor: 1.8,
		DeferredEnqueueCycles:   50,
		DeferredBatchSize:       250,
		DeferredFlushInterval:   10 * sim.Millisecond,
		DeferredFlushCycles:     2200,
		ITETimeout:              10 * sim.Microsecond,

		ShadowMgmtCycles: 500,

		MemcachedOpCycles:     12000,
		Graph500EdgeCycles:    10,
		Graph500LatencyCycles: 90,
		Graph500BytesPerEdge:  8,
		FioPerIOCycles:        4000,
		XorCyclesPerByte:      0.03,

		DamnAllocCycles:      90,
		DamnFreeCycles:       70,
		DamnRefillCycles:     900,
		DamnMapLookupCycles:  120,
		DamnUnmapCheckCycles: 30,
		DamnHeaderBytes:      128,
		IRQDisableCycles:     300,
		ZeroCyclesPerByte:    0.08,

		BypassPollInterval: 2 * sim.Microsecond,
		BypassRXSegCycles:  1500,
		VQHarvestCycles:    60,
		VQPostCycles:       80,
		DoorbellCycles:     400,
		BypassHarvestBurst: 64,

		IOTLBMissPenalty: 190 * sim.Nanosecond,

		NICDMAMemFraction:     0.5,
		CopyMemFraction:       0.3,
		ShadowCopyMemFraction: 2.9,
	}
}

// Charger is the cost-charging surface of sim.Task; every kernel-path
// function takes one. The evaluation passes real tasks; functional tests
// pass nil, and every helper below charges nothing to a nil Charger.
type Charger interface {
	Charge(cycles float64)
	ChargeTime(d sim.Time)
	Now() sim.Time
}

// IsNilCharger reports whether c is nil, including a typed-nil *sim.Task
// wrapped in the interface.
func IsNilCharger(c Charger) bool {
	if c == nil {
		return true
	}
	t, ok := c.(*sim.Task)
	return ok && t == nil
}

// Charge charges cycles if c is non-nil.
func Charge(c Charger, cycles float64) {
	if !IsNilCharger(c) {
		c.Charge(cycles)
	}
}

// ChargeTime charges a fixed duration if c is non-nil.
func ChargeTime(c Charger, d sim.Time) {
	if !IsNilCharger(c) {
		c.ChargeTime(d)
	}
}

// ChargeCat charges cycles and accounts them to a per-category accumulator
// (a stats.FloatCounter such as "perf/cycles_unmap"), making the cost-model
// spend attributable after a run. cat may be nil (stats off).
func ChargeCat(c Charger, cat *stats.FloatCounter, cycles float64) {
	Charge(c, cycles)
	cat.Add(cycles)
}

// ChargeTimeCat charges a fixed hardware duration and accounts its
// picoseconds to the per-category accumulator.
func ChargeTimeCat(c Charger, cat *stats.FloatCounter, d sim.Time) {
	ChargeTime(c, d)
	cat.Add(float64(d))
}
