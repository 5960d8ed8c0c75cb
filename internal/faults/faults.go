// Package faults is the simulator's deterministic fault-injection plane.
// Real hardware at the OS/device boundary does not only run the happy path:
// links drop and mangle frames, DMA translations fault into the IOMMU's
// fault-record queue, invalidation commands time out (VT-d's ITE), memory
// and IOVA space run out, and completion interrupts get lost. Every layer of
// the simulated machine consults one per-machine Injector at its fault
// points; the layers' recovery paths (re-posting descriptors, retry with
// backoff, allocator fallback chains) then make the injected fault
// survivable — and measurably so, because recovery cost is charged to
// simulated time like any other work.
//
// Determinism is the defining property: each fault kind draws from its own
// seeded random stream, so a fault schedule is a pure function of (seed,
// sequence of fault-point visits). Since the simulation itself is
// deterministic, the same seed replays byte-for-byte the same faults — a
// chaos-run failure reproduces exactly. A nil *Injector is valid everywhere
// and injects nothing, so instrumented hot paths cost one nil check when
// fault injection is off.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// Kind enumerates the typed fault points of the DMA stack.
type Kind uint8

const (
	// LinkDrop loses a wire segment before it reaches the NIC.
	LinkDrop Kind = iota
	// LinkCorrupt mangles a frame in flight; the NIC's hardware checksum
	// validation flags the completion and the driver drops the packet.
	LinkCorrupt
	// LinkDuplicate delivers a segment twice (it pays wire time twice).
	LinkDuplicate
	// LinkReorder holds a segment back so later traffic overtakes it.
	LinkReorder
	// DMAFault blocks one device-side translation even though the mapping
	// is valid — the VT-d fault-record path (§2.1 analogue: hardware
	// reports the fault and the transfer aborts; the OS reads the record).
	DMAFault
	// InvTimeout is VT-d's ITE: an invalidation-queue drain times out and
	// the OS retries with exponential backoff in simulated time.
	InvTimeout
	// IOVAExhaust makes a dma_map fail as if the IOVA space were full.
	IOVAExhaust
	// AllocFail makes a page allocation fail as if memory were exhausted
	// (after the shrinkers have run, as a real OOM would).
	AllocFail
	// ComplDelay delays an RX completion interrupt.
	ComplDelay
	// ComplLoss loses an RX completion interrupt entirely; the driver's
	// NAPI-style watchdog poll recovers the completion later.
	ComplLoss
	// UnmapFail makes a dma_unmap report failure (inconsistent mapping
	// state, e.g. after a function-level reset tore the domain down under
	// the driver). The driver must quarantine the buffer — except DAMN
	// buffers, whose chunk-owned mapping is independent of the per-DMA
	// unmap and which can therefore be released safely.
	UnmapFail

	numKinds
)

// Kinds lists every fault kind, in order.
var Kinds = []Kind{
	LinkDrop, LinkCorrupt, LinkDuplicate, LinkReorder, DMAFault,
	InvTimeout, IOVAExhaust, AllocFail, ComplDelay, ComplLoss, UnmapFail,
}

func (k Kind) String() string {
	switch k {
	case LinkDrop:
		return "link_drop"
	case LinkCorrupt:
		return "link_corrupt"
	case LinkDuplicate:
		return "link_duplicate"
	case LinkReorder:
		return "link_reorder"
	case DMAFault:
		return "dma_fault"
	case InvTimeout:
		return "inv_timeout"
	case IOVAExhaust:
		return "iova_exhaust"
	case AllocFail:
		return "alloc_fail"
	case ComplDelay:
		return "compl_delay"
	case ComplLoss:
		return "compl_loss"
	case UnmapFail:
		return "unmap_fail"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config describes one machine's fault plane.
type Config struct {
	// Seed roots every fault kind's random stream. Two machines with the
	// same Seed and the same workload see the same fault schedule.
	Seed int64
	// Rates is the per-visit injection probability of each fault kind;
	// kinds absent from the map never fire.
	Rates map[Kind]float64
}

// UniformRates gives every fault kind the same injection probability — the
// chaos harness's default schedule.
func UniformRates(p float64) map[Kind]float64 {
	m := make(map[Kind]float64, len(Kinds))
	for _, k := range Kinds {
		m[k] = p
	}
	return m
}

// Injector is one machine's fault plane. It is consulted from the single
// simulation goroutine only (like the engine it rides on).
type Injector struct {
	rates  [numKinds]float64
	rngs   [numKinds]*rand.Rand
	counts [numKinds]uint64
	// devFilter restricts a kind's fault points to visits attributed to one
	// device (-1 = any). Filtered-out visits return false *without drawing*,
	// so an unset filter is bit-identical to the unfiltered injector and a
	// per-tenant storm never perturbs its neighbours' schedules.
	devFilter [numKinds]int
	// digest folds every decision of every stream into one value, so two
	// runs can assert byte-identical fault schedules without recording
	// them (FNV-1a over (kind, decision) pairs).
	digest uint64

	// Observability (nil-safe handles; see SetStats).
	injectedC [numKinds]*stats.Counter
	recoveryH [numKinds]*stats.Histogram
}

// New builds an injector from a config. Each kind gets an independent
// random stream derived from the seed, so the schedule of one fault kind
// does not shift when another kind's rate changes.
func New(cfg Config) *Injector {
	inj := &Injector{digest: 1469598103934665603} // FNV-1a offset basis
	for _, k := range Kinds {
		inj.rates[k] = cfg.Rates[k]
		inj.devFilter[k] = -1
		// splitmix-style per-kind seed derivation keeps streams distinct
		// even for adjacent kinds.
		s := int64(uint64(cfg.Seed) ^ uint64(k+1)*0x9E3779B97F4A7C15)
		inj.rngs[k] = rand.New(rand.NewSource(s))
	}
	return inj
}

// SetStats attaches a metrics registry: one injected-fault counter and one
// recovery-latency histogram per fault kind, under the "faults" component.
func (inj *Injector) SetStats(r *stats.Registry) {
	if inj == nil {
		return
	}
	for _, k := range Kinds {
		inj.injectedC[k] = r.Counter("faults", "injected_"+k.String())
		inj.recoveryH[k] = r.Histogram("faults", "recovery_ps_"+k.String())
	}
}

// SetRate changes kind k's per-visit injection probability mid-run. The
// recovery figure uses this to schedule a deterministic fault *storm*: an
// event at a fixed simulated time raises the DMA-fault rate, a later event
// drops it back. Because each kind owns its stream and zero-rate kinds draw
// nothing, a scheduled rate change is exactly as deterministic as the
// schedule of the events that perform it.
func (inj *Injector) SetRate(k Kind, rate float64) {
	if inj == nil {
		return
	}
	inj.rates[k] = rate
}

// SetDeviceFilter restricts fault kind k to fault points attributed to one
// source device; dev < 0 clears the filter. Device-attributed fault points
// consult ShouldDev; plain Should ignores filters (its call sites carry no
// device identity). The tenant blast-radius experiments use this to storm a
// single virtual function while its neighbours see a fault-free schedule.
func (inj *Injector) SetDeviceFilter(k Kind, dev int) {
	if inj == nil {
		return
	}
	if dev < 0 {
		dev = -1
	}
	inj.devFilter[k] = dev
}

// Should reports whether fault kind k fires at this fault-point visit.
// A nil injector never fires. Kinds with rate zero draw nothing, so their
// streams stay aligned whatever other code paths execute.
func (inj *Injector) Should(k Kind) bool {
	if inj == nil || inj.rates[k] <= 0 {
		return false
	}
	fired := inj.rngs[k].Float64() < inj.rates[k]
	bit := uint64(0)
	if fired {
		bit = 1
		inj.counts[k]++
		inj.injectedC[k].Inc()
	}
	inj.digest = (inj.digest ^ (uint64(k)<<1 | bit)) * 1099511628211
	return fired
}

// ShouldDev is Should for fault points that carry a source-device identity.
// When kind k has a device filter installed and dev does not match, the
// visit returns false without drawing, so the filtered kind's stream
// advances only on target-device visits. With no filter installed ShouldDev
// is bit-identical to Should.
func (inj *Injector) ShouldDev(k Kind, dev int) bool {
	if inj == nil || inj.rates[k] <= 0 {
		return false
	}
	if f := inj.devFilter[k]; f >= 0 && dev != f {
		return false
	}
	return inj.Should(k)
}

// Duration draws a deterministic duration in [min, max] from kind k's
// stream — the hold-back of a reordered segment, the lateness of a delayed
// completion. Call it only after Should(k) returned true so the stream
// advances identically across replays.
func (inj *Injector) Duration(k Kind, min, max sim.Time) sim.Time {
	if inj == nil {
		return 0
	}
	if max <= min {
		return min
	}
	d := min + sim.Time(inj.rngs[k].Int63n(int64(max-min)+1))
	inj.digest = (inj.digest ^ uint64(d)) * 1099511628211
	return d
}

// ObserveRecovery records how long the stack took to recover from one
// injected fault of kind k (simulated picoseconds) — the latency cost of
// the degradation path, attributable per fault type.
func (inj *Injector) ObserveRecovery(k Kind, d sim.Time) {
	if inj == nil {
		return
	}
	inj.recoveryH[k].Observe(float64(d))
}

// Injected reports how many faults of kind k have fired.
func (inj *Injector) Injected(k Kind) uint64 {
	if inj == nil {
		return 0
	}
	return inj.counts[k]
}

// InjectedTotal reports all fired faults.
func (inj *Injector) InjectedTotal() uint64 {
	if inj == nil {
		return 0
	}
	var n uint64
	for _, k := range Kinds {
		n += inj.counts[k]
	}
	return n
}

// Counts returns fired-fault counts keyed by kind name (snapshot).
func (inj *Injector) Counts() map[string]uint64 {
	if inj == nil {
		return nil
	}
	m := make(map[string]uint64, len(Kinds))
	for _, k := range Kinds {
		m[k.String()] = inj.counts[k]
	}
	return m
}

// ScheduleDigest folds every decision the injector has made into one
// value: two runs with equal digests executed byte-identical fault
// schedules. A nil injector reports zero.
func (inj *Injector) ScheduleDigest() uint64 {
	if inj == nil {
		return 0
	}
	return inj.digest
}

// FormatCounts renders non-zero fired-fault counts deterministically
// ("link_drop=12 dma_fault=3"), for logs and the chaos harness.
func (inj *Injector) FormatCounts() string {
	if inj == nil {
		return "faults off"
	}
	var keys []string
	counts := inj.Counts()
	for k, n := range counts {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, counts[k])
	}
	if out == "" {
		return "no faults fired"
	}
	return out
}
