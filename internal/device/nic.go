// Package device models the DMA-capable hardware of the evaluation testbed:
// a dual-port 100 Gb/s NIC with per-core descriptor rings (the ConnectX-4
// analogue), an NVMe SSD (Fig 11), and a malicious device that mounts the
// DMA attacks of §2.1/§4.1.
//
// Every device access to memory goes through iommu.DMARead/DMAWrite — the
// devices address memory by IOVA only, so whatever protection scheme is
// active genuinely constrains them.
package device

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// RXDesc is one posted receive buffer: where the NIC may deposit an
// incoming segment.
type RXDesc struct {
	IOVA iommu.IOVA
	Size int
	// Cookie carries the driver's per-buffer state through the ring.
	Cookie any
}

// TXDesc is one transmit request.
type TXDesc struct {
	IOVA   iommu.IOVA
	Size   int
	Cookie any
	// Seg describes the frame for the far end of the wire. A standalone
	// machine's egress link is unterminated, so the zero value costs
	// nothing; topologies fill it (from the skb) so the receiving machine
	// gets real flow/hash/sequence metadata without the device parsing
	// payload bytes it never materialised.
	Seg Segment
}

// Segment is a unit of wire traffic after LRO aggregation (RX) or before
// TSO segmentation happens in hardware (TX): up to 64 KiB of TCP payload
// plus a header blob.
type Segment struct {
	Flow int
	// Hash is the RSS hash of the segment's flow tuple, as the NIC's hash
	// unit would compute it from the wire bytes (the simulated device does
	// not parse headers, so traffic sources supply it — see
	// netstack.RSSHashIPv4). The indirection table maps it to an RX ring;
	// an exact-match steering rule (SteerFlow) overrides it. Hash 0 lands
	// on ring 0, so raw single-ring tests need no hash at all.
	Hash uint32
	// Seq is the flow's ARQ sequence number (1-based; 0 means the segment
	// carries no ARQ state). The device treats it as opaque completion
	// metadata — only the netstack's reliable endpoints interpret it, so
	// legacy flows are untouched.
	Seq uint32
	// Meta is opaque application metadata carried end to end (the cluster
	// workloads encode request op/slot/client here, standing in for the
	// application header bytes the simulation doesn't materialise).
	Meta uint32
	// Stamp is the sender-side wire timestamp of a forwarded segment —
	// when its last byte left the sending NIC. Receivers use it for
	// cross-machine latency measurement; locally injected traffic leaves
	// it zero.
	Stamp  sim.Time
	Len    int    // total bytes on the wire (headers + payload)
	Header []byte // bytes the NIC actually materialises in memory
	// Payload, when non-nil, is materialised whole in memory in place of
	// Header (security tests); otherwise only the header bytes are
	// written and the rest of the buffer is left as allocated (throughput
	// runs, where moving gigabytes through host RAM would only slow the
	// simulation).
	Payload []byte
	// Corrupt marks a frame mangled in flight (injected link fault); the
	// NIC's hardware checksum validation flags it in the completion.
	Corrupt bool
}

// RXCompletion is handed to the driver's interrupt handler.
type RXCompletion struct {
	Desc    RXDesc
	Seg     Segment
	Written int // bytes the device wrote into the buffer
	// BadCSum reports that the NIC's hardware checksum validation failed
	// (corrupted frame); the driver must drop and recycle the buffer.
	BadCSum bool
}

// NICConfig sizes the NIC model.
type NICConfig struct {
	ID       int // device index (IOMMU identity)
	Ports    int
	RingSize int // RX descriptors per ring
	TxRing   int // TX descriptors per ring
	Rings    int // one per core
	// WireGbps is the per-port, per-direction rate.
	WireGbps float64
	// PCIeGbps bounds aggregate DMA per direction.
	PCIeGbps float64
}

// NIC is the network card model.
type NIC struct {
	Cfg   NICConfig
	se    *sim.Engine
	u     *iommu.IOMMU
	model *perf.Model
	membw *sim.MemController

	// Per-port, per-direction wire links: ingress terminates at this NIC
	// (traffic generators inject into it), egress is unterminated on a
	// standalone machine and wired to a peer NIC or router by a topology.
	ingress []*Link
	egress  []*Link
	// PCIe per direction, plus the aggregate bus ceiling.
	pcieRX  *sim.FluidResource
	pcieTX  *sim.FluidResource
	pcieAgg *sim.FluidResource
	// walker is the IOMMU page-walk unit: IOTLB misses from both
	// directions serialize here (Table 3's bottleneck for DAMN's
	// scattered IOVAs).
	walker *sim.FluidResource

	rings []*rxRing
	txqs  []*txRing
	inj   *faults.Injector

	// ringDevs is the DMA identity each ring uses on the bus — the SR-IOV
	// requester ID. By default every ring carries the physical function's
	// id (Cfg.ID); a tenant manager re-binds its rings to the tenant's
	// virtual function, so that ring's DMAs translate in the tenant's own
	// IOMMU domain and fault attribution lands on the tenant.
	ringDevs []int
	// ringQuar fences individual rings while the rest of the device keeps
	// running — the per-VF quarantine a multi-tenant NIC needs. The
	// whole-device quarantined flag still dominates.
	ringQuar []bool
	// adm, when installed, paces DMA admission per ring — the weighted
	// fair-share scheduler on the shared PCIe/memory ceiling. Nil when
	// tenancy is off: one pointer check on the fast path.
	adm Admission

	// ringCores binds each ring to the core whose interrupt handler serves
	// it — the MSI-X affinity of a real multi-queue NIC. Completion and
	// refill work for a ring always runs on its bound core, which is what
	// keeps a ring's allocations on that core's DAMN shard.
	ringCores []*sim.Core
	// rssTable is the RSS indirection table: hash → ring, round-robin by
	// default (the ethtool -X equal-weight layout).
	rssTable [RSSTableSize]int
	// steer holds exact-match flow-steering rules (the aRFS/ethtool -N
	// analogue): hash → ring, overriding the indirection table. Pinned
	// workloads use it to keep a flow on the core its consumer runs on.
	steer map[uint32]int

	rxHandler func(t *sim.Task, ring int, comps []RXCompletion)
	txHandler func(t *sim.Task, ring int, descs []TXDesc)

	// pollVQ, when a ring has an entry, routes that ring's completions to a
	// poll-mode virtqueue instead of an interrupt (see AttachVirtqueue).
	// Nil for every interrupt-driven configuration: one slice check on the
	// delivery path.
	pollVQ []*Virtqueue

	// quarantined fences the device off the host: ingress is dropped at
	// the wire, posting descriptors fails, no DMA is initiated. The
	// recovery supervisor sets it while a fault domain is being torn down
	// and rebuilt. removed additionally marks surprise hot-removal — the
	// device cannot be resumed, only replaced.
	quarantined bool
	removed     bool

	// Stats.
	RxSegments        uint64
	RxBytes           uint64
	TxSegments        uint64
	TxBytes           uint64
	RxBlocked         uint64 // segments whose DMA faulted
	RxStalls          uint64 // segments parked because the ring was empty
	RxQuarantineDrops uint64 // segments dropped at a quarantined device

	// Free lists recycling the per-packet scheduling records (each holds
	// its event and task closures, bound once at creation), plus the TX
	// payload-probe scratch buffer — the steady-state per-packet path
	// allocates nothing. Records are host-side only: they carry no
	// simulated memory and change no event or task ordering.
	freeArrivals []*rxArrival
	freeRXD      []*rxDispatch
	freeTXD      []*txDispatch
	txProbe      []byte

	// Observability (nil-safe handles; see SetStats).
	rxSegC    *stats.Counter
	rxByteC   *stats.Counter
	txSegC    *stats.Counter
	txByteC   *stats.Counter
	faultC    *stats.Counter
	stallC    *stats.Counter
	quarDropC *stats.Counter
	rxSizeH   *stats.Histogram
	txSizeH   *stats.Histogram
}

// SetStats attaches a metrics registry mirroring the NIC's traffic and DMA
// fault counters, plus segment-size histograms.
func (n *NIC) SetStats(r *stats.Registry) {
	n.rxSegC = r.Counter("device", "nic_rx_segments")
	n.rxByteC = r.Counter("device", "nic_rx_bytes")
	n.txSegC = r.Counter("device", "nic_tx_segments")
	n.txByteC = r.Counter("device", "nic_tx_bytes")
	n.faultC = r.Counter("device", "nic_dma_faults")
	n.stallC = r.Counter("device", "nic_rx_stalls")
	n.quarDropC = r.Counter("device", "nic_quarantine_drops")
	n.rxSizeH = r.Histogram("device", "nic_rx_segment_bytes")
	n.txSizeH = r.Histogram("device", "nic_tx_segment_bytes")
}

// rxRing holds posted descriptors and the flow-controlled backlog. Both
// queues pop via a head index and compact in place when an append would
// grow the array — one backing array serves the ring's whole life instead
// of the pop-reslice/append cycle reallocating per packet.
type rxRing struct {
	descs   []RXDesc
	dhead   int
	pending []Segment // flow-controlled backlog waiting for buffers
	phead   int
	// missed holds completions whose interrupt was lost (injected
	// ComplLoss); the driver's watchdog poll reaps them later.
	missed []missedComp
}

func (r *rxRing) posted() int { return len(r.descs) - r.dhead }

func (r *rxRing) parked() int { return len(r.pending) - r.phead }

func (r *rxRing) popDesc() RXDesc {
	d := r.descs[r.dhead]
	r.dhead++
	if r.dhead == len(r.descs) {
		r.descs = r.descs[:0]
		r.dhead = 0
	}
	return d
}

func (r *rxRing) popPending() Segment {
	s := r.pending[r.phead]
	r.pending[r.phead] = Segment{} // drop payload refs
	r.phead++
	if r.phead == len(r.pending) {
		r.pending = r.pending[:0]
		r.phead = 0
	}
	return s
}

func (r *rxRing) park(seg Segment) {
	if r.phead > 0 && len(r.pending) == cap(r.pending) {
		n := copy(r.pending, r.pending[r.phead:])
		clearSegs(r.pending[n:])
		r.pending = r.pending[:n]
		r.phead = 0
	}
	r.pending = append(r.pending, seg)
}

func clearSegs(s []Segment) {
	for i := range s {
		s[i] = Segment{}
	}
}

type missedComp struct {
	comp   RXCompletion
	lostAt sim.Time
}

type txRing struct {
	inFlight int
}

// NewNIC attaches a NIC to the machine. cores maps ring index to the core
// whose interrupt handler serves it; membw may be nil.
func NewNIC(se *sim.Engine, u *iommu.IOMMU, model *perf.Model, membw *sim.MemController, cores []*sim.Core, cfg NICConfig) *NIC {
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.Rings <= 0 {
		cfg.Rings = len(cores)
	}
	n := &NIC{Cfg: cfg, se: se, u: u, model: model, membw: membw}
	for p := 0; p < cfg.Ports; p++ {
		in := NewLink(fmt.Sprintf("nic%d-port%d-rx", cfg.ID, p), se, cfg.WireGbps)
		in.nic, in.nicPort, in.sink = n, p, false
		n.ingress = append(n.ingress, in)
		n.egress = append(n.egress, NewLink(fmt.Sprintf("nic%d-port%d-tx", cfg.ID, p), se, cfg.WireGbps))
	}
	pcieBytes := cfg.PCIeGbps * 1e9 / 8
	n.pcieRX = sim.NewFluidResource("pcie-rx", pcieBytes)
	n.pcieTX = sim.NewFluidResource("pcie-tx", pcieBytes)
	aggGbps := model.PCIeAggGbps
	if aggGbps <= 0 {
		aggGbps = 2 * cfg.PCIeGbps
	}
	n.pcieAgg = sim.NewFluidResource("pcie-agg", aggGbps*1e9/8)
	if model.IOTLBMissPenalty > 0 {
		n.walker = sim.NewFluidResource("iommu-walker", 1.0/model.IOTLBMissPenalty.Seconds())
	}
	for r := 0; r < cfg.Rings; r++ {
		n.rings = append(n.rings, &rxRing{})
		n.txqs = append(n.txqs, &txRing{})
		n.ringCores = append(n.ringCores, cores[r%len(cores)])
		n.ringDevs = append(n.ringDevs, cfg.ID)
	}
	n.ringQuar = make([]bool, cfg.Rings)
	for i := range n.rssTable {
		n.rssTable[i] = i % cfg.Rings
	}
	return n
}

// RSSTableSize is the number of indirection-table entries (mlx5's default).
const RSSTableSize = 128

// RingFor resolves the RX ring a segment with the given RSS hash lands on:
// an exact-match steering rule if one is installed, the indirection table
// otherwise. Traffic sources use it to learn where flow control for their
// flow is signalled.
func (n *NIC) RingFor(hash uint32) int {
	if ring, ok := n.steer[hash]; ok {
		return ring
	}
	return n.rssTable[hash%RSSTableSize]
}

// SteerFlow installs an exact-match steering rule directing the flow with
// the given RSS hash to a ring (aRFS: deliver where the consumer runs).
func (n *NIC) SteerFlow(hash uint32, ring int) error {
	if ring < 0 || ring >= len(n.rings) {
		return fmt.Errorf("device: steering to ring %d of %d", ring, len(n.rings))
	}
	if n.steer == nil {
		n.steer = make(map[uint32]int)
	}
	n.steer[hash] = ring
	return nil
}

// RingCore returns the core bound to a ring's completion interrupt.
func (n *NIC) RingCore(ring int) *sim.Core { return n.ringCores[ring] }

// BindRingDevice re-binds a ring's DMA identity to a virtual function: from
// now on the ring's transfers translate (and fault) as device dev. Passing
// the NIC's own id restores physical-function behaviour.
func (n *NIC) BindRingDevice(ring, dev int) error {
	if ring < 0 || ring >= len(n.ringDevs) {
		return fmt.Errorf("device: nic %d has no ring %d to bind", n.Cfg.ID, ring)
	}
	n.ringDevs[ring] = dev
	return nil
}

// RingDevice reports the DMA identity a ring currently uses.
func (n *NIC) RingDevice(ring int) int {
	if ring < 0 || ring >= len(n.ringDevs) {
		return n.Cfg.ID
	}
	return n.ringDevs[ring]
}

// Admission paces per-ring DMA admission on the shared bus: AdmitDMA
// returns the extra delay (0 for "go now") a transfer of the given size on
// the given ring must absorb before its DMA completes. Implemented by the
// tenant fair-share scheduler.
type Admission interface {
	AdmitDMA(ring, bytes int, now sim.Time) sim.Time
}

// SetAdmission installs (or with nil removes) the per-ring DMA admission
// pacer.
func (n *NIC) SetAdmission(a Admission) { n.adm = a }

// ID returns the NIC's device index.
func (n *NIC) ID() int { return n.Cfg.ID }

// SetFaults attaches the machine's fault-injection plane: netem-style link
// impairments at this machine's ingress links (drop/corrupt/duplicate/
// reorder) and delayed/lost completion interrupts on delivery.
func (n *NIC) SetFaults(inj *faults.Injector) {
	n.inj = inj
	for _, l := range n.ingress {
		l.inj = inj
	}
}

// OnRX registers the driver's receive interrupt handler.
func (n *NIC) OnRX(h func(t *sim.Task, ring int, comps []RXCompletion)) { n.rxHandler = h }

// OnTXComplete registers the driver's transmit-completion handler.
func (n *NIC) OnTXComplete(h func(t *sim.Task, ring int, descs []TXDesc)) { n.txHandler = h }

// Quarantined reports whether the device is fenced off the host.
func (n *NIC) Quarantined() bool { return n.quarantined }

// Removed reports whether the device was surprise-removed.
func (n *NIC) Removed() bool { return n.removed }

// Quarantine fences the device: from now on ingress segments are dropped at
// the wire, descriptor posting fails and the device initiates no DMA. It
// empties every RX ring and returns the descriptors that were posted or
// sitting in interrupt-lost completions, so the driver can unmap and
// reclaim their buffers; flow-control-parked segments are simply dropped
// (lossless flow control ends where the fault domain does) and their count
// returned. Idempotent — a second call returns nothing new.
func (n *NIC) Quarantine() (reclaim []RXDesc, parkedDropped int) {
	n.quarantined = true
	for _, r := range n.rings {
		reclaim, parkedDropped = n.drainRing(r, reclaim, parkedDropped)
	}
	return reclaim, parkedDropped
}

// QuarantineRings fences a subset of rings — the per-tenant quarantine:
// their ingress is dropped at the wire, posting fails, no DMA is initiated,
// while every other ring keeps line rate. Returns the posted and
// interrupt-lost descriptors of just those rings for the driver to reclaim,
// plus the count of flow-control-parked segments dropped. Idempotent per
// ring.
func (n *NIC) QuarantineRings(rings []int) (reclaim []RXDesc, parkedDropped int) {
	for _, ring := range rings {
		if ring < 0 || ring >= len(n.rings) {
			continue
		}
		n.ringQuar[ring] = true
		reclaim, parkedDropped = n.drainRing(n.rings[ring], reclaim, parkedDropped)
	}
	return reclaim, parkedDropped
}

// drainRing empties one RX ring for a quarantine: it appends the ring's
// posted and interrupt-lost descriptors to reclaim, and drops and counts
// its flow-control-parked segments, adding them to dropped.
func (n *NIC) drainRing(r *rxRing, reclaim []RXDesc, dropped int) ([]RXDesc, int) {
	reclaim = append(reclaim, r.descs[r.dhead:]...)
	r.descs, r.dhead = nil, 0
	for _, m := range r.missed {
		reclaim = append(reclaim, m.comp.Desc)
	}
	r.missed = nil
	if p := r.parked(); p > 0 {
		n.RxQuarantineDrops += uint64(p)
		n.quarDropC.Add(uint64(p))
		dropped += p
	}
	r.pending, r.phead = nil, 0
	return reclaim, dropped
}

// ResumeRings lifts a per-ring quarantine once the rings' owner has been
// re-admitted (domain re-attached, rings about to be refilled).
func (n *NIC) ResumeRings(rings []int) error {
	if n.removed {
		return fmt.Errorf("device: nic %d was removed; cannot resume rings", n.Cfg.ID)
	}
	for _, ring := range rings {
		if ring < 0 || ring >= len(n.ringQuar) {
			return fmt.Errorf("device: nic %d has no ring %d to resume", n.Cfg.ID, ring)
		}
		n.ringQuar[ring] = false
	}
	return nil
}

// RingQuarantined reports whether a specific ring is fenced (by its own
// quarantine or the whole device's).
func (n *NIC) RingQuarantined(ring int) bool {
	if n.quarantined {
		return true
	}
	if ring < 0 || ring >= len(n.ringQuar) {
		return false
	}
	return n.ringQuar[ring]
}

// Resume lifts a quarantine after the host has rebuilt the device's state
// (domain re-attached, rings about to be refilled). A removed device cannot
// resume — it is no longer there.
func (n *NIC) Resume() error {
	if n.removed {
		return fmt.Errorf("device: nic %d was removed; cannot resume", n.Cfg.ID)
	}
	n.quarantined = false
	return nil
}

// Remove models surprise hot-removal: quarantine semantics with no way
// back. Returns the same reclaim list as Quarantine.
func (n *NIC) Remove() (reclaim []RXDesc, parkedDropped int) {
	n.removed = true
	return n.Quarantine()
}

// Reinsert models hotplugging a replacement device into the slot; the
// device stays quarantined until Resume.
func (n *NIC) Reinsert() { n.removed = false }

// PostRX adds receive buffers to a ring (driver side). Parked segments are
// delivered immediately if buffers were the bottleneck.
func (n *NIC) PostRX(ring int, descs ...RXDesc) error {
	if n.RingQuarantined(ring) {
		return fmt.Errorf("device: nic %d ring %d quarantined; RX post rejected", n.Cfg.ID, ring)
	}
	r, err := n.ring(ring)
	if err != nil {
		return err
	}
	if r.posted()+len(descs) > n.Cfg.RingSize {
		return fmt.Errorf("device: RX ring %d overflow", ring)
	}
	if r.dhead > 0 && len(r.descs)+len(descs) > cap(r.descs) {
		k := copy(r.descs, r.descs[r.dhead:])
		r.descs = r.descs[:k]
		r.dhead = 0
	}
	r.descs = append(r.descs, descs...)
	for r.parked() > 0 && r.posted() > 0 {
		n.deliver(ring, r.popPending())
	}
	return nil
}

// ring resolves a ring index with bounds checking: a bad index from the
// faults plane or a misconfigured workload must surface as a checked error,
// not panic the simulation.
func (n *NIC) ring(ring int) (*rxRing, error) {
	if ring < 0 || ring >= len(n.rings) {
		return nil, fmt.Errorf("device: nic %d has no RX ring %d (rings: %d)", n.Cfg.ID, ring, len(n.rings))
	}
	return n.rings[ring], nil
}

// RXPosted reports the number of free posted buffers in a ring.
func (n *NIC) RXPosted(ring int) (int, error) {
	r, err := n.ring(ring)
	if err != nil {
		return 0, err
	}
	return r.posted(), nil
}

// RXParked reports segments held by flow control because the ring had no
// buffers — the congestion signal a paused sender sees.
func (n *NIC) RXParked(ring int) (int, error) {
	r, err := n.ring(ring)
	if err != nil {
		return 0, err
	}
	return r.parked(), nil
}

// WireRXBacklog returns how far a port's inbound wire has fallen behind —
// the generator's pacing signal.
func (n *NIC) WireRXBacklog(port int) sim.Time { return n.ingress[port].Backlog(n.se.Now()) }

// Egress returns the link a port transmits onto; a topology connects it to
// a peer NIC or router port.
func (n *NIC) Egress(port int) *Link { return n.egress[port] }

// InjectRX simulates a segment arriving on a port: it enters the port's
// ingress link, which carries the wire pacing and netem-style impairments
// (see Link.Inject), and lands in an RX ring steered by its RSS hash. The
// PCIe and memory-bandwidth resources then pace the DMA; the payload lands
// through the IOMMU; then the ring's bound core takes an interrupt.
func (n *NIC) InjectRX(port int, seg Segment) {
	n.ingress[port].Inject(seg)
}

// arriveFromWire lands a segment forwarded across a terminated link: the
// sender already paid serialization and propagation, so what remains is
// this machine's receive side — quarantine fence, the receiving fault
// plane's link impairments, RSS steering, and delivery. Mirrors
// Link.Inject without the wire reservation (a forwarded segment's wire
// time was charged on the sending link; charging it again would halve the
// usable cross-machine bandwidth).
func (n *NIC) arriveFromWire(l *Link, seg Segment) {
	ring := n.RingFor(seg.Hash)
	if n.RingQuarantined(ring) {
		n.RxQuarantineDrops++
		n.quarDropC.Inc()
		return
	}
	if l.inj.Should(faults.LinkDrop) {
		l.Drops++
		return
	}
	if l.inj.Should(faults.LinkCorrupt) {
		seg.Corrupt = true
	}
	if l.inj.Should(faults.LinkDuplicate) {
		dup := seg
		n.scheduleArrival(n.se.Now(), ring, dup)
	}
	at := n.se.Now()
	if l.inj.Should(faults.LinkReorder) {
		at += l.inj.Duration(faults.LinkReorder, 1*sim.Microsecond, 50*sim.Microsecond)
	}
	n.scheduleArrival(at, ring, seg)
}

// rxArrival carries one segment across its wire time: InjectRX schedules the
// record's fire closure (bound once at creation) instead of allocating a
// fresh closure per segment. The record returns to the free list before
// delivering, so delivery-path re-entry just pops the next record.
type rxArrival struct {
	n    *NIC
	ring int
	seg  Segment
	fire func()
}

func (n *NIC) scheduleArrival(at sim.Time, ring int, seg Segment) {
	var a *rxArrival
	if m := len(n.freeArrivals); m > 0 {
		a = n.freeArrivals[m-1]
		n.freeArrivals = n.freeArrivals[:m-1]
	} else {
		a = &rxArrival{n: n}
		a.fire = func() {
			ring, seg := a.ring, a.seg
			a.seg = Segment{}
			a.n.freeArrivals = append(a.n.freeArrivals, a)
			a.n.tryDeliver(ring, seg)
		}
	}
	a.ring = ring
	a.seg = seg
	n.se.At(at, a.fire)
}

// rxDispatch carries one RX completion from its DMA-done event into the
// interrupt handler. Each completion remains its own event and its own task
// (merging either would change figure output); only the record and its two
// closures are recycled.
type rxDispatch struct {
	n     *NIC
	ring  int
	comps [1]RXCompletion
	fire  func()
	task  func(*sim.Task)
}

func (n *NIC) getRXDispatch() *rxDispatch {
	if m := len(n.freeRXD); m > 0 {
		d := n.freeRXD[m-1]
		n.freeRXD = n.freeRXD[:m-1]
		return d
	}
	d := &rxDispatch{n: n}
	d.fire = func() {
		d.n.ringCores[d.ring].Submit(true, d.task)
	}
	d.task = func(t *sim.Task) {
		if d.n.rxHandler != nil {
			d.n.rxHandler(t, d.ring, d.comps[:1])
		}
		d.comps[0] = RXCompletion{}
		d.n.freeRXD = append(d.n.freeRXD, d)
	}
	return d
}

// txDispatch is the transmit-side twin: its fire closure also retires the
// in-flight descriptor at wire-done time, as the inline closure used to.
type txDispatch struct {
	n     *NIC
	ring  int
	descs [1]TXDesc
	fire  func()
	task  func(*sim.Task)
}

func (n *NIC) getTXDispatch() *txDispatch {
	if m := len(n.freeTXD); m > 0 {
		d := n.freeTXD[m-1]
		n.freeTXD = n.freeTXD[:m-1]
		return d
	}
	d := &txDispatch{n: n}
	d.fire = func() {
		d.n.txqs[d.ring].inFlight--
		d.n.ringCores[d.ring].Submit(true, d.task)
	}
	d.task = func(t *sim.Task) {
		if d.n.txHandler != nil {
			d.n.txHandler(t, d.ring, d.descs[:1])
		}
		d.descs[0] = TXDesc{}
		d.n.freeTXD = append(d.n.freeTXD, d)
	}
	return d
}

func (n *NIC) tryDeliver(ring int, seg Segment) {
	if n.RingQuarantined(ring) {
		// In-flight wire time elapsed before the quarantine hit: the
		// segment dies at the fence instead of parking forever.
		n.RxQuarantineDrops++
		n.quarDropC.Inc()
		return
	}
	r := n.rings[ring]
	if r.posted() == 0 {
		// Lossless flow control (§6.1: "Ethernet flow control on"):
		// park until the driver posts buffers.
		r.park(seg)
		n.RxStalls++
		n.stallC.Inc()
		return
	}
	n.deliver(ring, seg)
}

// deliver performs the DMA and raises the interrupt.
func (n *NIC) deliver(ring int, seg Segment) {
	r := n.rings[ring]
	desc := r.popDesc()
	dev := n.ringDevs[ring]

	now := n.se.Now()
	done := n.pcieRX.Reserve(now, float64(seg.Len))
	if a := n.pcieAgg.Reserve(now, float64(seg.Len)); a > done {
		done = a
	}
	if m := perf.DeviceDMATraffic(n.membw, now, seg.Len, n.model.NICDMAMemFraction); m > done {
		done = m
	}
	if n.adm != nil {
		if extra := n.adm.AdmitDMA(ring, seg.Len, now); extra > 0 {
			done += extra
		}
	}

	// The actual DMA, translated by the IOMMU. The transfer touches every
	// 4 KiB page of the segment; each IOTLB miss is a page walk that
	// occupies the DMA pipeline (Table 3's effect).
	missesBefore := n.u.TLB().Misses
	written, err := n.dmaWriteSegment(dev, desc, seg)
	n.touchTranslations(dev, desc.IOVA, seg.Len, true)
	misses := n.u.TLB().Misses - missesBefore
	if misses > 0 && n.walker != nil {
		if d2 := n.walker.Reserve(now, float64(misses)); d2 > done {
			done = d2
		}
	}

	if err != nil {
		// Blocked by the IOMMU: the segment is lost to the device; the
		// buffer is still returned to the driver with 0 bytes (model of
		// a DMA fault + driver error handling).
		n.RxBlocked++
		n.faultC.Inc()
	}
	n.RxSegments++
	n.RxBytes += uint64(seg.Len)
	n.rxSegC.Inc()
	n.rxByteC.Add(uint64(seg.Len))
	n.rxSizeH.Observe(float64(seg.Len))

	comp := RXCompletion{Desc: desc, Seg: seg, Written: written, BadCSum: seg.Corrupt}
	if n.pollVQ != nil && n.pollVQ[ring] != nil {
		// Poll mode: the completion lands in the used ring at DMA-done time
		// and waits for the driver's busy-poll harvest. There is no
		// interrupt to lose or delay, so the completion-fault injectors
		// don't apply (the bypass loss story is the ARQ layer's).
		n.pollVQ[ring].schedulePublish(done, comp)
		return
	}
	if n.inj.Should(faults.ComplLoss) {
		// The interrupt is lost: the DMA happened but no handler runs.
		// The completion sits in the ring until the driver's watchdog
		// poll reaps it (ReapMissed).
		r.missed = append(r.missed, missedComp{comp: comp, lostAt: done})
		return
	}
	if n.inj.Should(faults.ComplDelay) {
		extra := n.inj.Duration(faults.ComplDelay, 1*sim.Microsecond, 100*sim.Microsecond)
		n.inj.ObserveRecovery(faults.ComplDelay, extra)
		done += extra
	}
	d := n.getRXDispatch()
	d.ring = ring
	d.comps[0] = comp
	n.se.At(done, d.fire)
}

// ReapMissed pops the completions whose interrupts were lost on a ring —
// the device-side half of the driver's NAPI-style watchdog poll. Recovery
// latency (loss to reap) is recorded per completion.
func (n *NIC) ReapMissed(ring int) []RXCompletion {
	r := n.rings[ring]
	if len(r.missed) == 0 {
		return nil
	}
	now := n.se.Now()
	comps := make([]RXCompletion, 0, len(r.missed))
	for _, m := range r.missed {
		comps = append(comps, m.comp)
		lat := now - m.lostAt
		if lat < 0 {
			lat = 0
		}
		n.inj.ObserveRecovery(faults.ComplLoss, lat)
	}
	r.missed = r.missed[:0]
	return comps
}

// touchTranslations exercises the IOMMU translation for every page a
// transfer spans (the functional DMA only materialises a prefix, but the
// hardware walks the whole span).
func (n *NIC) touchTranslations(dev int, base iommu.IOVA, span int, write bool) {
	n.u.TranslateSpan(dev, base, span, write) //nolint:errcheck
}

// dmaWriteSegment writes the materialised bytes of a segment into the
// posted buffer through the IOMMU, as the ring's bound device identity.
func (n *NIC) dmaWriteSegment(dev int, desc RXDesc, seg Segment) (int, error) {
	payload := seg.Header
	if seg.Payload != nil {
		payload = seg.Payload
	}
	if len(payload) > desc.Size {
		payload = payload[:desc.Size]
	}
	if len(payload) == 0 {
		// Still exercise the translation for the buffer start.
		if _, err := n.u.Translate(dev, desc.IOVA, true); err != nil {
			return 0, err
		}
		return 0, nil
	}
	return n.u.DMAWrite(dev, desc.IOVA, payload)
}

// PostTX queues a transmit descriptor (driver side, after dma_map). The
// NIC fetches the payload by DMA, puts it on the wire of the given port,
// and completes back to the driver.
func (n *NIC) PostTX(ring, port int, desc TXDesc) error {
	if ring < 0 || ring >= len(n.txqs) {
		return fmt.Errorf("device: nic %d has no TX ring %d (rings: %d)", n.Cfg.ID, ring, len(n.txqs))
	}
	if n.RingQuarantined(ring) {
		return fmt.Errorf("device: nic %d ring %d quarantined; TX post rejected", n.Cfg.ID, ring)
	}
	q := n.txqs[ring]
	if q.inFlight >= n.Cfg.TxRing {
		return fmt.Errorf("device: TX ring %d full", ring)
	}
	q.inFlight++
	dev := n.ringDevs[ring]

	now := n.se.Now()
	done := n.pcieTX.Reserve(now, float64(desc.Size))
	if a := n.pcieAgg.Reserve(now, float64(desc.Size)); a > done {
		done = a
	}
	if m := perf.DeviceDMATraffic(n.membw, now, desc.Size, n.model.NICDMAMemFraction); m > done {
		done = m
	}
	if n.adm != nil {
		if extra := n.adm.AdmitDMA(ring, desc.Size, now); extra > 0 {
			done += extra
		}
	}

	missesBefore := n.u.TLB().Misses
	// Fetch (a prefix of) the payload through the IOMMU; for throughput
	// runs reading one cache line per buffer exercises translation
	// without bulk copying.
	probe := desc.Size
	if probe > 256 {
		probe = 256
	}
	if cap(n.txProbe) < probe {
		n.txProbe = make([]byte, 256)
	}
	buf := n.txProbe[:probe]
	_, err := n.u.DMARead(dev, desc.IOVA, buf)
	n.touchTranslations(dev, desc.IOVA, desc.Size, false)
	misses := n.u.TLB().Misses - missesBefore
	if misses > 0 && n.walker != nil {
		if d2 := n.walker.Reserve(now, float64(misses)); d2 > done {
			done = d2
		}
	}
	if err != nil {
		n.RxBlocked++ // reuse the blocked counter for TX faults too
		n.faultC.Inc()
	}

	wireDone := n.egress[port].Reserve(done, desc.Size)
	n.TxSegments++
	n.TxBytes += uint64(desc.Size)
	n.txSegC.Inc()
	n.txByteC.Add(uint64(desc.Size))
	n.txSizeH.Observe(float64(desc.Size))
	d := n.getTXDispatch()
	d.ring = ring
	d.descs[0] = desc
	n.se.At(wireDone, d.fire)
	if eg := n.egress[port]; eg.HasPeer() && desc.Seg.Len > 0 {
		seg := desc.Seg
		seg.Stamp = wireDone
		eg.Forward(wireDone, seg)
	}
	return nil
}

// TXInFlight reports queued transmit descriptors on a ring.
func (n *NIC) TXInFlight(ring int) int { return n.txqs[ring].inFlight }
