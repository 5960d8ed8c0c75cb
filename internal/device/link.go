package device

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/sim"
)

// Link is one direction of a network cable: a serialization (bandwidth)
// resource, a propagation latency, and the netem-style impairment point
// (drop / corrupt / duplicate / reorder) drawn from the receiving machine's
// fault plane. The wire model used to live inside NIC.InjectRX; extracting
// it makes the wire a first-class topology edge while the NIC keeps only
// PCIe, IOMMU and ring pacing.
//
// A link is owned by its sending side: the NIC's per-port ingress links
// (what standalone traffic generators inject into) and egress links (where
// PostTX serializes outbound segments) are built with the NIC; router
// output ports are links built by the topology. Each link has exactly one
// serialization resource — whoever puts bytes on the wire reserves it once,
// so a cross-machine hop is paced at the sender and never double-charged at
// the receiver.
//
// Cross-shard delivery goes through the sched hook: when the two ends of
// the link live on different logical processes of a sim.Cluster, the
// topology routes the arrival through the sending shard's outbox instead of
// scheduling directly on the receiving engine. The receiving-side work
// (impairment draws, ring steering, DMA) then runs on the receiver's engine
// in deterministic epoch-merge order.
type Link struct {
	name    string
	se      *sim.Engine
	wire    *sim.FluidResource
	latency sim.Time

	// inj is the receiving side's fault plane; impairments are always
	// drawn where the damage is observed, exactly as the NIC ingress
	// point always did. Nil (router-terminated or sink links) draws
	// nothing.
	inj *faults.Injector

	// Terminus: a NIC port, an arbitrary receive function (router ingress),
	// or nothing (a sink — the standalone NIC's egress, where segments
	// historically died at the wire).
	nic     *NIC
	nicPort int
	fn      func(Segment)
	sink    bool

	// sched schedules receiver-side work; nil means the receiving end
	// shares the sending engine (standalone machine, loopback tests).
	sched func(at sim.Time, fn func())

	// freeArrivals recycles Forward's in-flight records (see linkArrival).
	freeArrivals []*linkArrival

	// Drops counts segments the link lost to an injected LinkDrop (sink
	// and router links count nothing; NIC termini count on the NIC).
	Drops uint64
}

// NewLink builds an unterminated link owned by the given engine: segments
// forwarded into it die at the far end until a terminus is connected. gbps
// is the serialization rate.
func NewLink(name string, se *sim.Engine, gbps float64) *Link {
	return &Link{name: name, se: se, sink: true,
		wire: sim.NewFluidResource(name, gbps*1e9/8)}
}

// ConnectNIC terminates the link at a NIC port: forwarded segments arrive
// at that NIC (after serialization + latency), pass the receiving machine's
// link impairments, and are steered to an RX ring. sched, when non-nil,
// routes arrivals across shard boundaries (see sim.Cluster); inj is the
// receiving machine's fault plane.
func (l *Link) ConnectNIC(peer *NIC, port int, latency sim.Time, inj *faults.Injector, sched func(sim.Time, func())) error {
	if peer == nil {
		return fmt.Errorf("device: link %s: nil peer NIC", l.name)
	}
	if port < 0 || port >= peer.Cfg.Ports {
		return fmt.Errorf("device: link %s: peer NIC has no port %d", l.name, port)
	}
	l.nic, l.nicPort, l.fn, l.sink = peer, port, nil, false
	l.latency, l.inj, l.sched = latency, inj, sched
	return nil
}

// ConnectFunc terminates the link at an arbitrary receiver (a router's
// ingress): forwarded segments arrive at fn after serialization + latency.
func (l *Link) ConnectFunc(latency sim.Time, fn func(Segment), sched func(sim.Time, func())) {
	l.fn, l.nic, l.sink = fn, nil, false
	l.latency, l.sched = latency, sched
}

// HasPeer reports whether the link is terminated (segments forwarded into
// it reach something).
func (l *Link) HasPeer() bool { return !l.sink }

// Backlog reports how far the wire has fallen behind at time now — the
// sending side's pacing signal.
func (l *Link) Backlog(now sim.Time) sim.Time { return l.wire.Backlog(now) }

// Reserve serializes size bytes onto the wire starting no earlier than
// start and returns when the last byte leaves.
func (l *Link) Reserve(start sim.Time, size int) sim.Time {
	return l.wire.Reserve(start, float64(size))
}

// Forward carries a segment that finished serializing at wireDone to the
// link's terminus: it arrives latency later, on the receiving side's
// engine. The sender must have Reserved the wire already (PostTX and the
// router do); unterminated links drop the segment at the far end, which is
// exactly the standalone NIC's historical egress behaviour.
func (l *Link) Forward(wireDone sim.Time, seg Segment) {
	if l.sink {
		return
	}
	var a *linkArrival
	if m := len(l.freeArrivals); m > 0 {
		a = l.freeArrivals[m-1]
		l.freeArrivals = l.freeArrivals[:m-1]
	} else {
		a = &linkArrival{l: l}
		a.fire = func() {
			seg := a.seg
			a.seg = Segment{}
			a.l.freeArrivals = append(a.l.freeArrivals, a)
			a.l.arrive(seg)
		}
	}
	a.seg = seg
	at := wireDone + l.latency
	if l.sched != nil {
		l.sched(at, a.fire)
		return
	}
	l.se.At(at, a.fire)
}

// linkArrival carries one forwarded segment across the link's propagation
// delay: Forward schedules the record's fire closure, bound once at
// creation, instead of allocating a closure per segment, as the NIC's
// dispatch records do. The record returns to the free list before the
// terminus runs, so a router can re-forward the segment at once.
//
// On a cross-shard link the sending shard pops the free list and the
// receiving shard pushes onto it. That is safe only because sim.Cluster
// runs every shard's epoch on one goroutine.
type linkArrival struct {
	l    *Link
	seg  Segment
	fire func()
}

// arrive runs on the receiving side once serialization and propagation have
// elapsed: the impairment point for forwarded traffic, then the terminus.
func (l *Link) arrive(seg Segment) {
	if l.fn != nil {
		l.fn(seg)
		return
	}
	if l.nic != nil {
		l.nic.arriveFromWire(l, seg)
	}
}

// Inject is the receiving-side entry for locally injected traffic — the
// standalone testbed's remote-generator model, where segments materialize
// at the NIC-facing end of the wire. The sequence (quarantine fence, link
// impairments, wire serialization, reorder hold-back, arrival) is exactly
// the historical NIC.InjectRX path, so single-machine runs are
// byte-identical to the pre-Link NIC; the impairment draws come from this
// link's injector in the same order, so fault schedules and their digests
// are preserved too.
func (l *Link) Inject(seg Segment) {
	n := l.nic
	ring := n.RingFor(seg.Hash)
	if n.RingQuarantined(ring) {
		// A fenced (or absent) device terminates the link: the segment
		// still occupies the wire (the remote sender cannot know), then
		// dies at the fence — consuming no host resources and drawing no
		// fault-injection decisions. Charging wire time keeps the link
		// paced; otherwise a generator polling the backlog would spin.
		l.wire.Reserve(l.se.Now(), float64(seg.Len))
		n.RxQuarantineDrops++
		n.quarDropC.Inc()
		return
	}
	if l.inj.Should(faults.LinkDrop) {
		// Lost on the wire: consumes no host resources, leaves no trace
		// but the injection counter — the stack sees a silent gap.
		return
	}
	if l.inj.Should(faults.LinkCorrupt) {
		seg.Corrupt = true
	}
	if l.inj.Should(faults.LinkDuplicate) {
		// The duplicate pays its own wire time, like a real re-sent frame.
		dup := seg
		dupDone := l.wire.Reserve(l.se.Now(), float64(dup.Len))
		n.scheduleArrival(dupDone+l.latency, ring, dup)
	}
	wireDone := l.wire.Reserve(l.se.Now(), float64(seg.Len))
	if l.inj.Should(faults.LinkReorder) {
		// Hold the segment back so traffic behind it overtakes.
		wireDone += l.inj.Duration(faults.LinkReorder, 1*sim.Microsecond, 50*sim.Microsecond)
	}
	n.scheduleArrival(wireDone+l.latency, ring, seg)
}
