package workloads

import (
	"fmt"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// ARQGenerator is the reliable flavour of the remote traffic machine: the
// same flow identity and pacing as Generator, but every segment carries an
// ARQ sequence number and the source retransmits what the receiver's
// cumulative ACKs say was lost. Loss is injected at the host's ingress, so
// the generator is where the sending half of the transport lives; the
// host side is a netstack.ReliableReceiver whose ACKs ride the host's TX
// DMA path back here.
type ARQGenerator struct {
	flowID
	ma      *testbed.Machine
	arq     *netstack.ArqSender
	stopped bool
	pumpFn  func()
}

// NewARQGenerator builds a reliable, flow-steered traffic source: segments
// arrive on port, an exact-match steering rule directs the flow to ring,
// and the embedded ArqSender's window (the default 64 segments) paces
// injection alongside the usual wire/ring backpressure.
func NewARQGenerator(ma *testbed.Machine, port, ring, flow, segLen int) (*ARQGenerator, error) {
	g := &ARQGenerator{flowID: newFlowID(port, flow), ma: ma}
	if err := g.steer(ma, ring); err != nil {
		return nil, err
	}
	g.arq = netstack.NewArqSender(ma.Sim, segLen, g.xmit)
	return g, nil
}

// Arq exposes the sending state machine (the receiver side needs it as the
// ACK destination; tests and figures read its counters).
func (g *ARQGenerator) Arq() *netstack.ArqSender { return g.arq }

// xmit puts one (possibly retransmitted) segment on the wire. The header
// is built once into the segment's embedded buffer — the TCP sequence
// field carries the flow's byte offset — and reused verbatim on
// retransmission, so the retransmit path performs no allocation.
func (g *ARQGenerator) xmit(seg *netstack.ArqSegment, retx bool) {
	if !retx {
		payload := seg.Len - netstack.HeaderLen
		byteSeq := (seg.Seq - 1) * uint32(payload)
		seg.Hdr = netstack.AppendHeaders(seg.HdrBuf(), g.src, g.dst, g.sport(), dport, byteSeq, payload)
	}
	g.ma.NIC.InjectRX(g.port, device.Segment{
		Flow: g.flow, Hash: g.hash, Seq: seg.Seq, Len: seg.Len, Header: seg.Hdr,
	})
}

// Start begins offering load.
func (g *ARQGenerator) Start() {
	g.pumpFn = g.pump
	g.pump()
}

// Stop halts the generator at its next pump. In-flight segments may still
// be retransmitted by the ARQ timer until acknowledged.
func (g *ARQGenerator) Stop() { g.stopped = true }

// pump offers load under three brakes: the ARQ window (reliability
// backpressure), the wire backlog (link pacing), and the parked-segment
// limit (PFC pause emulation). Unlike the unreliable generator it never
// gives up when the ring errors out — a quarantined ring is
// what the recovery supervisor heals, and the flow must resume on its own
// once reinit refills the rings.
func (g *ARQGenerator) pump() {
	if g.stopped {
		return
	}
	se := g.ma.Sim
	nic := g.ma.NIC
	parked, err := nic.RXParked(g.ring)
	if err == nil && parked < genParkLimit {
		for g.arq.CanSend() && nic.WireRXBacklog(g.port) < genWindow {
			g.arq.SendNext()
			if parked, err = nic.RXParked(g.ring); err != nil || parked >= genParkLimit {
				break
			}
		}
	}
	se.After(genPoll, g.pumpFn)
}

// LossConfig describes one loss-resilience experiment: reliable flows over
// a machine whose fault plane drops/corrupts a fraction of wire segments.
type LossConfig struct {
	Machine  *testbed.Machine
	Duration sim.Time
	Warmup   sim.Time
}

// LossResult is one datapoint of the loss-resilience figure. All counters
// are measurement-window deltas.
type LossResult struct {
	Scheme string
	// GoodputGbps is delivered in-order bytes — not raw wire bytes.
	GoodputGbps float64
	// WireGbps is what the NIC accepted off the wire (retransmissions and
	// soon-to-be-dropped segments included).
	WireGbps float64
	// RetxPct is retransmissions as a percentage of all data
	// transmissions (new + retransmitted).
	RetxPct float64
	// CPUPerMB is core-busy microseconds per delivered megabyte — the
	// column where the per-scheme retransmit cost shows up directly.
	CPUPerMB float64

	Sent        uint64
	Retransmits uint64
	FastRetx    uint64
	TimeoutRetx uint64
	Timeouts    uint64
	AcksSent    uint64
	DroppedDup  uint64
	DroppedOow  uint64
	CsumDrops   uint64

	// InjectedTotal / ScheduleDigest identify the fault schedule that ran
	// (digest equality means exact replay); DamnLiveChunks is the
	// conservation audit's live count (-1 without DAMN).
	InjectedTotal  uint64
	ScheduleDigest uint64
	DamnLiveChunks int
}

// RunLoss executes reliable flows over the machine's (possibly lossy)
// fault plane and measures goodput and retransmission cost. It runs one
// flow per core: flow i is steered to ring i%rings on port i%ports, with
// its ACKs on the same ring/port, and each flow's ARQ window is 64
// segments.
func RunLoss(cfg LossConfig) (LossResult, error) {
	ma := cfg.Machine
	if ma == nil {
		return LossResult{}, fmt.Errorf("workloads: nil machine")
	}
	if ma.Faults == nil {
		return LossResult{}, fmt.Errorf("workloads: loss run needs a fault plane (zero rates are fine)")
	}
	if cfg.Duration == 0 {
		cfg.Duration = 30 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 10 * sim.Millisecond
	}
	if err := ma.FillAllRings(); err != nil {
		return LossResult{}, err
	}

	rings := ma.NIC.Cfg.Rings
	ports := ma.Model.NICPorts
	flows := len(ma.Cores)
	gens := make([]*ARQGenerator, flows)
	recvs := make([]*netstack.Receiver, flows)
	rrs := map[int]*netstack.ReliableReceiver{}
	for i := 0; i < flows; i++ {
		flow := i + 1
		g, err := NewARQGenerator(ma, i%ports, i%rings, flow, ma.Model.SegmentSize)
		if err != nil {
			return LossResult{}, err
		}
		gens[i] = g
		recvs[i] = &netstack.Receiver{K: ma.Kernel}
		rrs[flow] = netstack.NewReliableReceiver(recvs[i], ma.Driver, g.Ring(), i%ports, g.Arq())
	}
	ma.Driver.OnDeliver = netstack.DemuxFlows(rrs)
	for _, g := range gens {
		g.Start()
	}

	// Warmup, then measure deltas over the window.
	ma.Sim.Run(cfg.Warmup)
	type snap struct {
		good, sent, retx, fast, tout, timeouts, acks, dup, oow, csum, wire uint64
	}
	take := func() snap {
		var s snap
		for i := range gens {
			a := gens[i].Arq()
			s.sent += a.Sent
			s.retx += a.Retransmits
			s.fast += a.FastRetx
			s.tout += a.TimeoutRetx
			s.timeouts += a.Timeouts
			s.good += recvs[i].Bytes
		}
		for _, rr := range rrs {
			s.acks += rr.AcksSent
			s.dup += rr.DroppedDup
			s.oow += rr.DroppedOow
		}
		s.csum = ma.Driver.RxCsumDrops
		s.wire = ma.NIC.RxBytes
		return s
	}
	s0 := take()
	w := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + cfg.Duration)
	m := w.Close()
	s1 := take()
	for _, g := range gens {
		g.Stop()
	}

	goodBytes := s1.good - s0.good
	sent := s1.sent - s0.sent
	retx := s1.retx - s0.retx
	res := LossResult{
		Scheme:      ma.SchemeName(),
		GoodputGbps: m.Gbps(goodBytes),
		WireGbps:    m.Gbps(s1.wire - s0.wire),
		CPUPerMB:    m.CPUPerMBus(goodBytes),
		Sent:        sent,
		Retransmits: retx,
		FastRetx:    s1.fast - s0.fast,
		TimeoutRetx: s1.tout - s0.tout,
		Timeouts:    s1.timeouts - s0.timeouts,
		AcksSent:    s1.acks - s0.acks,
		DroppedDup:  s1.dup - s0.dup,
		DroppedOow:  s1.oow - s0.oow,
		CsumDrops:   s1.csum - s0.csum,
	}
	if total := sent + retx; total > 0 {
		res.RetxPct = 100 * float64(retx) / float64(total)
	}

	if ma.StopWatchdog != nil {
		ma.StopWatchdog()
	}
	res.DamnLiveChunks = -1
	if ma.Damn != nil {
		live, err := ma.Damn.Audit()
		if err != nil {
			return res, fmt.Errorf("workloads: loss conservation audit: %w", err)
		}
		res.DamnLiveChunks = live
	}
	res.InjectedTotal = ma.Faults.InjectedTotal()
	res.ScheduleDigest = ma.Faults.ScheduleDigest()
	return res, nil
}
