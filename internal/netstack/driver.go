package netstack

import (
	"fmt"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// Driver is the NIC driver: it keeps RX rings filled with mapped buffers,
// turns completions into skbuffs, and maps/puts TX skbuffs on the wire.
// Its allocation switch is the paper's 2-line driver change (§5.7): with
// DAMN deployed, RX buffers come from damn_alloc; otherwise from the
// ordinary kernel allocator via the DMA API's active scheme.
type Driver struct {
	k   *Kernel
	nic *device.NIC

	// napi holds one poll context per RX ring, bound to the core the NIC
	// raises that ring's completion interrupt on (the MSI-X affinity of a
	// multi-queue driver). All completion, refill and watchdog work for a
	// ring runs on its context's core — which is what pins the ring's
	// allocations to that core's DAMN shard.
	napi []napiCtx

	// RxBufSize is the posted receive buffer size (64 KiB: one LRO
	// segment per buffer).
	RxBufSize int

	// freeBufs recycles rxBuf cookie records; each record's ring life has
	// exactly one terminal point (delivery, drop, reclaim), where it
	// returns to the pool.
	freeBufs []*rxBuf

	// OnDeliver is the stack entry point for received skbs.
	OnDeliver func(t *sim.Task, ring int, skb *SKBuff)
	// OnTxDone notifies the sending flow that a segment left the wire
	// (the ACK-clocked window opener).
	OnTxDone func(t *sim.Task, ring int, skb *SKBuff)

	// epoch is bumped on every quarantine drain (whole-device or per-ring).
	// Each ring records the epoch value of its *own* last drain in its NAPI
	// context, and completions carry the epoch their buffer was posted
	// under; a completion whose epoch trails its ring's raced a teardown —
	// its ring state is gone, so the handler reclaims the buffer without
	// touching the (possibly rebuilt) ring. Keeping the stamp per ring is
	// what makes a tenant quarantine surgical: draining tenant A's rings
	// must not stale-drop tenant B's in-flight completions.
	epoch uint64

	// cap, when installed, is the capability gate on the buffer-handoff
	// fast path: every map (RX post, TX map) and unmap (RX completion)
	// first validates the capability presented for the ring. Nil when
	// tenancy is off — one pointer check, so the single-tenant path is
	// byte-identical to the pre-tenant driver.
	cap CapGate

	// ringTenants labels each ring with its owning tenant id (-1 = none).
	// Only used for stats attribution; the DMA identity lives in the NIC's
	// ring-device binding.
	ringTenants   []int
	rxWrongCoreBy []uint64

	// Stats.
	RxDelivered     uint64
	RxWrongCore     uint64 // completions handled off their ring's bound core (invariant: 0)
	RxDropped       uint64 // completions with DMA faults
	RxCsumDrops     uint64 // corrupted frames caught by hardware checksum
	RxUnmapErrors   uint64 // RX unmap failures (buffer leaked unless DAMN)
	RxUnmapReleased uint64 // DAMN buffers released despite a failed unmap
	RxStaleDrops    uint64 // completions that crossed a quarantine epoch
	TxUnmapErrors   uint64
	TxCompleted     uint64
	WatchdogRuns    uint64 // watchdog polls that found work
	WatchdogReaps   uint64 // completions recovered after a lost interrupt

	// Observability (nil-safe handle; see SetStats). reg receives the
	// per-tenant wrong-core views.
	reg       *stats.Registry
	wdRefillC *stats.Counter
}

// SetStats attaches a metrics registry: views of the driver's delivery and
// drop counts and of the degradation-path accounting (checksum drops,
// quarantined unmap failures, watchdog recoveries), plus a counter of the
// descriptors the watchdog reposts.
func (d *Driver) SetStats(r *stats.Registry) {
	d.reg = r
	for name, count := range map[string]*uint64{
		"rx_delivered":      &d.RxDelivered,
		"rx_wrong_core":     &d.RxWrongCore,
		"rx_dropped":        &d.RxDropped,
		"rx_csum_drops":     &d.RxCsumDrops,
		"rx_unmap_errors":   &d.RxUnmapErrors,
		"rx_unmap_released": &d.RxUnmapReleased,
		"rx_stale_drops":    &d.RxStaleDrops,
		"tx_unmap_errors":   &d.TxUnmapErrors,
		"tx_completed":      &d.TxCompleted,
		"watchdog_runs":     &d.WatchdogRuns,
		"watchdog_reaped":   &d.WatchdogReaps,
	} {
		r.CounterFunc("netstack", name, func() uint64 { return *count })
	}
	d.wdRefillC = r.Counter("netstack", "watchdog_refills")
}

// CapGate is the driver-side capability check of the multi-tenant fast
// path: before any buffer crosses the kernel/device boundary on a ring
// (map at RX post or TX, unmap at RX completion), the gate validates the
// capability the ring's owner currently presents. Implemented by
// tenant.Table; a forged or revoked capability denies the handoff. The
// check must be pure arithmetic — it sits on the 0-alloc per-packet path.
type CapGate interface {
	CheckRing(ring int) bool
}

// SetCapGate installs (or with nil removes) the capability gate.
func (d *Driver) SetCapGate(g CapGate) { d.cap = g }

// SetRingTenant labels a ring with its owning tenant for stats
// attribution; tenant < 0 clears the label. The per-tenant wrong-core
// view (netstack/rx_wrong_core_t<id>) is registered at the tenant's first
// wrong-core completion, so machines without tenants snapshot exactly as
// before.
func (d *Driver) SetRingTenant(ring, tenant int) {
	if ring < 0 || ring >= len(d.ringTenants) {
		return
	}
	d.ringTenants[ring] = tenant
}

// RxWrongCoreFor reports wrong-core completions attributed to one tenant.
func (d *Driver) RxWrongCoreFor(tenant int) uint64 {
	if tenant < 0 || tenant >= len(d.rxWrongCoreBy) {
		return 0
	}
	return d.rxWrongCoreBy[tenant]
}

// noteWrongCore attributes wrong-core completions to the ring's tenant.
func (d *Driver) noteWrongCore(ring int, n uint64) {
	ten := d.ringTenants[ring]
	if ten < 0 || n == 0 {
		return
	}
	for ten >= len(d.rxWrongCoreBy) {
		d.rxWrongCoreBy = append(d.rxWrongCoreBy, 0)
	}
	if d.rxWrongCoreBy[ten] == 0 {
		d.reg.CounterFunc("netstack", fmt.Sprintf("rx_wrong_core_t%d", ten), func() uint64 {
			return d.rxWrongCoreBy[ten]
		})
	}
	d.rxWrongCoreBy[ten] += n
}

// rxBuf is the driver's per-posted-buffer state, carried through the ring
// as the descriptor cookie.
type rxBuf struct {
	pa    mem.PhysAddr
	iova  iommu.IOVA
	dev   int // DMA identity the buffer was mapped under
	damn  bool
	epoch uint64 // ring epoch the buffer was posted under
}

// napiCtx is one RX ring's NAPI poll context. The core is the ring's
// interrupt affinity, read once from the NIC at driver construction; the
// shortfall counts descriptors missing from circulation on this ring —
// completions consumed whose repost failed, plus initial-fill gaps. The
// watchdog restores exactly this deficit — it must not "top up" in-flight
// descriptors, or it would defeat flow control. epoch is the value of the
// driver's drain counter at this ring's last quarantine drain; buffers
// posted earlier are stale on arrival.
type napiCtx struct {
	core      *sim.Core
	shortfall int
	epoch     uint64
}

// NewDriver wires a driver to its NIC, building one NAPI context per ring
// on the ring's bound core.
func NewDriver(k *Kernel, nic *device.NIC) *Driver {
	d := &Driver{k: k, nic: nic, RxBufSize: k.Model.SegmentSize}
	for ring := 0; ring < nic.Cfg.Rings; ring++ {
		d.napi = append(d.napi, napiCtx{core: nic.RingCore(ring)})
		d.ringTenants = append(d.ringTenants, -1)
	}
	nic.OnRX(d.handleRX)
	nic.OnTXComplete(d.handleTXComplete)
	return d
}

// RingCore reports the core a ring's NAPI context is bound to (tests and
// the shard-affinity invariant).
func (d *Driver) RingCore(ring int) *sim.Core { return d.napi[ring].core }

// NIC returns the underlying device.
func (d *Driver) NIC() *device.NIC { return d.nic }

// FillRing posts buffers until the RX ring is full (initial priming; no
// segments are in flight yet). A failure records the remaining gap as the
// ring's shortfall so the watchdog can finish the job later.
func (d *Driver) FillRing(t *sim.Task, ring int) error {
	for {
		posted, err := d.nic.RXPosted(ring)
		if err != nil {
			return err
		}
		if posted >= d.nic.Cfg.RingSize {
			return nil
		}
		if err := d.postOne(t, ring); err != nil {
			d.napi[ring].shortfall += d.nic.Cfg.RingSize - posted
			return err
		}
	}
}

func (d *Driver) getRXBuf() *rxBuf {
	if n := len(d.freeBufs); n > 0 {
		rb := d.freeBufs[n-1]
		d.freeBufs = d.freeBufs[:n-1]
		return rb
	}
	return &rxBuf{}
}

func (d *Driver) putRXBuf(rb *rxBuf) {
	*rb = rxBuf{}
	d.freeBufs = append(d.freeBufs, rb)
}

func (d *Driver) postOne(t *sim.Task, ring int) error {
	if d.cap != nil && !d.cap.CheckRing(ring) {
		return fmt.Errorf("netstack: ring %d capability denied; RX post refused", ring)
	}
	perf.Charge(t, d.k.Model.SkbAllocCycles)
	dev := d.nic.RingDevice(ring)
	pa, damnOwned, err := d.k.AllocBuffer(t, dev, iommu.PermWrite, d.RxBufSize)
	if err != nil {
		return fmt.Errorf("netstack: RX buffer allocation: %w", err)
	}
	v, err := d.k.DMA.Map(t, dev, pa, d.RxBufSize, dmaapi.FromDevice)
	if err != nil {
		d.k.FreeBuffer(t, pa, damnOwned)
		return fmt.Errorf("netstack: RX buffer map: %w", err)
	}
	rb := d.getRXBuf()
	rb.pa, rb.iova, rb.dev, rb.damn, rb.epoch = pa, v, dev, damnOwned, d.napi[ring].epoch
	return d.nic.PostRX(ring, device.RXDesc{IOVA: v, Size: d.RxBufSize, Cookie: rb})
}

// reclaimBuf returns a buffer whose ring life is over to the kernel:
// dma_unmap then free. When the unmap fails (domain torn down under the
// driver, injected unmap fault) a non-DAMN buffer's mapping state is
// unknown and it must be quarantined — a deliberate, counted leak. A DAMN
// buffer's IOMMU mapping belongs to its chunk, not to this map/unmap pair,
// so a failed per-DMA unmap leaves nothing ambiguous: the buffer is
// released for reuse. (Leaking it instead would pin its chunk forever and
// break conservation across device resets.)
func (d *Driver) reclaimBuf(t *sim.Task, rb *rxBuf) (freed bool) {
	if err := d.k.DMA.Unmap(t, rb.dev, rb.iova, d.RxBufSize, dmaapi.FromDevice); err != nil {
		d.RxUnmapErrors++
		if !rb.damn {
			return false
		}
		d.RxUnmapReleased++
	}
	_ = d.k.FreeBuffer(t, rb.pa, rb.damn)
	return true
}

// handleRX runs in interrupt context on the ring's bound core.
func (d *Driver) handleRX(t *sim.Task, ring int, comps []device.RXCompletion) {
	if t.Core() != d.napi[ring].core {
		// Shard-affinity invariant: a ring's completions (and thus its
		// buffer allocations and invalidations) only ever touch the DAMN
		// shard of the ring's bound core. Must stay zero; DESIGN.md §11.
		d.RxWrongCore += uint64(len(comps))
		d.noteWrongCore(ring, uint64(len(comps)))
	}
	for _, comp := range comps {
		rb := comp.Desc.Cookie.(*rxBuf)
		if rb.epoch != d.napi[ring].epoch {
			// The completion raced a quarantine: its descriptor was
			// popped before the teardown, so the drain never saw it.
			// Reclaim the buffer but leave the (rebuilt) ring alone.
			d.RxStaleDrops++
			d.RxDropped++
			d.reclaimBuf(t, rb)
			d.putRXBuf(rb)
			continue
		}
		if d.cap != nil && !d.cap.CheckRing(ring) {
			// The ring's capability was revoked (or a forged one is being
			// presented) while the buffer was in flight: the handoff back
			// to the kernel is denied. Reclaim the buffer kernel-side —
			// conservation must survive containment — count the drop, and
			// post no replacement: a capability-less ring drains.
			d.RxDropped++
			d.reclaimBuf(t, rb)
			d.putRXBuf(rb)
			continue
		}
		// dma_unmap returns ownership to the kernel. For shadow
		// buffers this performs the copy-back; for DAMN it is the MSB
		// no-op; for strict it invalidates.
		if err := d.k.DMA.Unmap(t, rb.dev, rb.iova, d.RxBufSize, dmaapi.FromDevice); err != nil {
			// A non-DAMN buffer's mapping state is now unknown, so it
			// can never be reused: quarantine it (deliberate leak). A
			// DAMN buffer's mapping is chunk-owned and unaffected by
			// the failed unmap, so it goes back to the allocator (see
			// reclaimBuf). Either way, count the drop and keep the
			// ring alive and receiving.
			d.RxUnmapErrors++
			if rb.damn {
				d.RxUnmapReleased++
				_ = d.k.FreeBuffer(t, rb.pa, true)
			}
			d.RxDropped++
			d.putRXBuf(rb)
			if err := d.postOne(t, ring); err != nil {
				d.napi[ring].shortfall++ // watchdog restores it
			}
			continue
		}
		// Replenish the ring before handing the packet up, as drivers
		// do, so the NIC keeps receiving while the stack works.
		if err := d.postOne(t, ring); err != nil {
			// Out of buffers: the ring shrinks; the NIC will park
			// traffic (flow control) until memory frees up or the
			// watchdog restores the recorded shortfall.
			d.RxDropped++
			d.napi[ring].shortfall++
		}
		if comp.Written == 0 && comp.Seg.Len > 0 && len(comp.Seg.Header) > 0 {
			// The DMA faulted (attack or misconfiguration): no
			// packet to deliver; recycle the buffer.
			_ = d.k.FreeBuffer(t, rb.pa, rb.damn)
			d.RxDropped++
			d.putRXBuf(rb)
			continue
		}
		if comp.BadCSum {
			// Hardware checksum caught a corrupted frame: drop and
			// recycle, exactly as a real driver does.
			_ = d.k.FreeBuffer(t, rb.pa, rb.damn)
			d.RxCsumDrops++
			d.RxDropped++
			d.putRXBuf(rb)
			continue
		}
		skb := AdoptBuffer(d.k, rb.dev, iommu.PermWrite, rb.pa, d.RxBufSize, rb.damn)
		skb.SetReceived(comp.Seg.Len, comp.Written)
		skb.Flow = comp.Seg.Flow
		skb.Seq = comp.Seg.Seq
		skb.Hash = comp.Seg.Hash
		skb.Meta = comp.Seg.Meta
		skb.Stamp = comp.Seg.Stamp
		d.putRXBuf(rb)
		d.RxDelivered++
		if d.OnDeliver != nil {
			d.OnDeliver(t, ring, skb)
		} else {
			skb.Free(t)
		}
	}
}

const (
	// watchdogPollCycles is the CPU cost of one NAPI-style watchdog poll
	// that found work (ring scan + bookkeeping).
	watchdogPollCycles = 600
	// watchdogPeriod is the interval between watchdog polls of a ring.
	watchdogPeriod = 100 * sim.Microsecond
)

// EnableWatchdog arms a NAPI-style poll on every ring: each period it reaps
// completions whose interrupts were lost and reposts the descriptors whose
// replenish failed (the recorded shortfall). Real drivers run exactly such
// a watchdog (mlx5's health poll / NAPI timeout) so a missed interrupt
// degrades latency instead of wedging the ring. It deliberately restores
// only the shortfall — descriptors consumed by in-flight segments are the
// flow-control signal, not losses. The testbed arms it only when fault
// injection is on; at a zero fault rate it never finds work, so the event
// stream matches a machine without it. Returns a stop function.
func (d *Driver) EnableWatchdog() (stop func()) {
	stops := make([]func(), 0, d.nic.Cfg.Rings)
	for ring := 0; ring < d.nic.Cfg.Rings; ring++ {
		ring := ring
		n := &d.napi[ring]
		stops = append(stops, d.k.Sim.Every(watchdogPeriod, func() {
			if d.nic.RingQuarantined(ring) {
				// A quarantined or resetting device owns no ring state:
				// reposting into it would hand buffers to a domain that
				// is being torn down. The shortfall survives untouched;
				// once Reinit refills the rings the next tick resumes
				// normal service.
				return
			}
			comps := d.nic.ReapMissed(ring)
			if len(comps) == 0 && n.shortfall == 0 {
				return
			}
			n.core.Submit(true, func(t *sim.Task) {
				perf.Charge(t, watchdogPollCycles)
				d.WatchdogRuns++
				if len(comps) > 0 {
					d.WatchdogReaps += uint64(len(comps))
					d.handleRX(t, ring, comps)
				}
				// Repost what the interrupt path failed to; under injected
				// OOM this may fail again — the next tick retries.
				for n.shortfall > 0 {
					if err := d.postOne(t, ring); err != nil {
						break
					}
					n.shortfall--
					d.wdRefillC.Inc()
				}
			})
		}))
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// Shortfall reports the total descriptor deficit across rings — the NAPI
// watchdog's backlog. The recovery supervisor reads it as a health signal:
// a deficit that keeps growing means reposts keep failing.
func (d *Driver) Shortfall() int {
	n := 0
	for i := range d.napi {
		n += d.napi[i].shortfall
	}
	return n
}

// QuarantineDrain fences the NIC and tears down the driver's ring state:
// every descriptor still posted (or parked in an interrupt-lost completion)
// is unmapped and its buffer returned to the kernel while the IOMMU domain
// is still attached — so legacy-scheme unmaps succeed and IOVA slots are
// recycled. The epoch bump makes any completion already in flight reclaim
// its buffer on arrival instead of touching the dead ring. Returns how many
// buffers were reclaimed, how many had to be leaked (failed non-DAMN
// unmaps), and how many flow-control-parked segments were dropped.
func (d *Driver) QuarantineDrain(t *sim.Task) (reclaimed, leaked, parkedDropped int) {
	d.epoch++
	for i := range d.napi {
		d.napi[i].epoch = d.epoch
	}
	descs, parked := d.nic.Quarantine()
	reclaimed, leaked = d.reclaimDescs(t, descs)
	// The deficit described a ring that no longer exists; Reinit refills
	// from scratch.
	for i := range d.napi {
		d.napi[i].shortfall = 0
	}
	return reclaimed, leaked, parked
}

// QuarantineDrainRings is the tenant-scoped QuarantineDrain: it fences and
// tears down only the given rings, reclaiming their posted buffers while
// the owner's IOMMU domain is still attached, and bumps only those rings'
// epochs — in-flight completions on *other* rings are untouched, which is
// what keeps a tenant quarantine's blast radius at one tenant.
func (d *Driver) QuarantineDrainRings(t *sim.Task, rings []int) (reclaimed, leaked, parkedDropped int) {
	d.epoch++
	for _, ring := range rings {
		if ring >= 0 && ring < len(d.napi) {
			d.napi[ring].epoch = d.epoch
		}
	}
	descs, parked := d.nic.QuarantineRings(rings)
	reclaimed, leaked = d.reclaimDescs(t, descs)
	for _, ring := range rings {
		if ring >= 0 && ring < len(d.napi) {
			d.napi[ring].shortfall = 0
		}
	}
	return reclaimed, leaked, parked
}

// reclaimDescs unmaps the buffer behind every descriptor a quarantine
// drained from the NIC and returns it to the kernel, counting the buffers
// reclaimed and those leaked by a failed non-DAMN unmap.
func (d *Driver) reclaimDescs(t *sim.Task, descs []device.RXDesc) (reclaimed, leaked int) {
	for _, desc := range descs {
		rb := desc.Cookie.(*rxBuf)
		if d.reclaimBuf(t, rb) {
			reclaimed++
		} else {
			leaked++
		}
		d.putRXBuf(rb)
	}
	return reclaimed, leaked
}

// Reinit brings a recovered device back into service: lifts the quarantine
// and refills every RX ring. A fill failure leaves the gap in the ring's
// shortfall (the watchdog keeps retrying) and is returned so the supervisor
// can decide between waiting and escalating.
func (d *Driver) Reinit(t *sim.Task) error {
	d.nic.Resume()
	var firstErr error
	for ring := 0; ring < d.nic.Cfg.Rings; ring++ {
		if d.nic.RingQuarantined(ring) {
			continue // a tenant still in containment keeps its fence
		}
		if err := d.FillRing(t, ring); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ReinitRings is the tenant-scoped Reinit: it lifts the given rings'
// quarantine and refills them, leaving the rest of the device alone.
func (d *Driver) ReinitRings(t *sim.Task, rings []int) error {
	if err := d.nic.ResumeRings(rings); err != nil {
		return err
	}
	var firstErr error
	for _, ring := range rings {
		if err := d.FillRing(t, ring); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Transmit maps an skb and hands it to the NIC (TSO: the whole ≤64 KiB
// segment goes down at once).
func (d *Driver) Transmit(t *sim.Task, ring, port int, skb *SKBuff) error {
	if d.cap != nil && !d.cap.CheckRing(ring) {
		return fmt.Errorf("netstack: ring %d capability denied; TX refused", ring)
	}
	v, err := skb.MapForDevice(t, dmaapi.ToDevice)
	if err != nil {
		return err
	}
	err = d.nic.PostTX(ring, port, &device.TXDesc{IOVA: v, Size: skb.Len(), Cookie: skb,
		Seg: device.Segment{
			Flow: skb.Flow,
			Hash: skb.Hash,
			Seq:  skb.Seq,
			Meta: skb.Meta,
			Len:  skb.Len(),
		}})
	if err != nil {
		skb.UnmapForDevice(t, dmaapi.ToDevice)
		return err
	}
	return nil
}

// handleTXComplete runs in interrupt context after the segment is on the
// wire.
func (d *Driver) handleTXComplete(t *sim.Task, ring int, descs []device.TXDesc) {
	for i := range descs {
		skb := descs[i].Cookie.(*SKBuff)
		if err := skb.UnmapForDevice(t, dmaapi.ToDevice); err != nil {
			// The skb already cleared its mapped flag, so freeing it is
			// safe; the stale IOMMU mapping leaks until the domain is
			// torn down. Count it and let the flow continue.
			d.TxUnmapErrors++
		}
		d.TxCompleted++
		if d.OnTxDone != nil {
			d.OnTxDone(t, ring, skb)
		} else {
			skb.Free(t)
		}
	}
}
