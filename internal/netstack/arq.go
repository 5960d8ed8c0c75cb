package netstack

import (
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

// ARQ — the reliable-delivery layer. The fault plane can drop, corrupt,
// duplicate, and reorder wire segments; this file turns those events from
// silent goodput loss into recovered deliveries: a cumulative-ACK
// sliding-window sender with RFC 6298 RTO estimation (exponential backoff,
// Karn's rule), dup-ACK fast retransmit, and a bounded reorder/reassembly
// window at the receiver.
//
// Recovery is deliberately Reno-style: each hole needs its own three
// duplicate ACKs before fast retransmit; a fresh cumulative ACK resets the
// counter, and a partial ACK never auto-retransmits. The NewReno
// partial-ACK rule assumes the ACK path keeps pace with delivery; here a
// CPU-saturated host drains TX (ACK) completions much later than RX
// deliveries, so a repaired hole releases a burst of stale-but-advancing
// ACKs — under NewReno every one of them would spuriously retransmit an
// already-delivered segment, and the duplicates' ACKs feed the next burst.
// Dup-ACK-gated recovery is immune: stale fresh ACKs just drain.
//
// Placement mirrors the testbed: loss is injected at the NIC's ingress, so
// the *data* sender is the remote traffic-generation machine (it wraps an
// ArqSender and retransmits by re-injecting the segment), while the host
// runs a ReliableReceiver whose ACKs travel the host's real TX DMA path —
// every ACK pays the per-scheme map/unmap cost, and every retransmitted
// data segment re-pays the per-scheme RX buffer cycle (strict remaps,
// deferred batches, DAMN reuses its permanent mapping). The cost asymmetry
// under loss is therefore modeled end to end, not asserted.
//
// Determinism: all timing lives on the discrete-event engine. The RTO
// timer is a single lazily re-armed event (the engine has no cancel API):
// the sender tracks the true deadline in rtoAt and the pending event
// simply checks it when it fires, re-arming if the deadline moved out.
// The deadline only ever extends a pending event — if a fresh RTT sample
// shrinks the RTO while a timer is outstanding, the timeout fires at the
// old (later) time. That errs toward fewer spurious timeouts and keeps
// the timer 0-alloc and exactly replayable.
//
// The ACK direction is lossless by design (the fault plane injects only at
// the host's ingress); cumulative ACKs would tolerate ACK loss anyway, but
// keeping the reverse path clean makes the figure attribute every
// retransmission to data-path loss. A netfilter hook that deterministically
// drops a flow's segments would retransmit forever — the loss workloads
// install no hooks, and real stacks have the same pathology.

const (
	// arqWindow is the sender's in-flight segment limit (segments, not
	// bytes): the receiver's reorder window, so every segment in flight
	// fits the receiver's buffer.
	arqWindow = reorderWindow
	// dupThresh is the duplicate-ACK count that triggers fast retransmit.
	dupThresh int = 3
	// initRTO seeds the retransmission timeout before the first RTT
	// sample; minRTO/maxRTO clamp the estimator and the backoff.
	initRTO = sim.Millisecond
	minRTO  = 100 * sim.Microsecond
	maxRTO  = 10 * sim.Millisecond
)

// ArqSegment is one in-flight data segment. Segments are pooled by the
// sender; the embedded header buffer keeps retransmission header rebuilds
// allocation-free (HeaderLen fits with room to spare).
type ArqSegment struct {
	// Seq is the 1-based segment sequence number (0 is reserved for
	// "no ARQ" in device.Segment).
	Seq uint32
	// Len is the segment's wire length.
	Len int
	// Hdr is the marshalled header stack, built by the transmit callback
	// on first send into HdrBuf and reused verbatim on retransmission.
	Hdr []byte

	hdrBuf [64]byte
	sentAt sim.Time
	sends  int
}

// HdrBuf returns the segment's embedded header buffer, empty, for the
// transmit callback to AppendHeaders into without allocating.
func (s *ArqSegment) HdrBuf() []byte { return s.hdrBuf[:0] }

// ArqSender is the sending half of a reliable flow: a sliding window of
// unacknowledged segments, an RTT estimator, and the retransmission
// machinery. It does not touch the wire itself — the xmit callback does
// (re-injecting at the remote generator, or transmitting through a host
// driver), so the same state machine serves either direction.
type ArqSender struct {
	eng *sim.Engine
	// segLen is the wire length of each data segment.
	segLen int
	// xmit transmits a segment; retx marks retransmissions (the segment's
	// header is already built then and must be reused, not rebuilt).
	xmit func(seg *ArqSegment, retx bool)

	nextSeq uint32 // next sequence number to assign
	ackSeq  uint32 // all segments below this are acknowledged

	// unacked[head:] is the in-flight window in sequence order; popped
	// entries compact in place (same head-index idiom as the NIC rings).
	unacked []*ArqSegment
	head    int
	free    []*ArqSegment

	dupAcks int

	// RFC 6298 estimator state.
	srtt    sim.Time
	rttvar  sim.Time
	rto     sim.Time
	hasSRTT bool

	// Lazy RTO timer: rtoAt is the true deadline; timerArmed says one
	// pending engine event exists (armed for a time <= any later rtoAt).
	rtoAt      sim.Time
	timerArmed bool
	timerFn    func()

	// Stats.
	Sent        uint64
	Acked       uint64
	Retransmits uint64
	FastRetx    uint64
	TimeoutRetx uint64
	Timeouts    uint64
	DupAcks     uint64
}

// NewArqSender builds a sender of segLen-byte segments on the engine; xmit
// performs the actual transmission of a (possibly retransmitted) segment.
func NewArqSender(eng *sim.Engine, segLen int, xmit func(seg *ArqSegment, retx bool)) *ArqSender {
	s := &ArqSender{
		eng:     eng,
		segLen:  segLen,
		xmit:    xmit,
		nextSeq: 1,
		ackSeq:  1,
		rto:     initRTO,
	}
	s.timerFn = s.onTimer
	return s
}

// InFlight reports the number of unacknowledged segments.
func (s *ArqSender) InFlight() int { return len(s.unacked) - s.head }

// CanSend reports whether the window admits another segment — the
// backpressure the traffic source honours.
func (s *ArqSender) CanSend() bool { return s.InFlight() < arqWindow }

// AckSeq returns the cumulative acknowledgment point.
func (s *ArqSender) AckSeq() uint32 { return s.ackSeq }

// RTO returns the current retransmission timeout.
func (s *ArqSender) RTO() sim.Time { return s.rto }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *ArqSender) SRTT() sim.Time { return s.srtt }

// SendNext assigns the next sequence number and transmits a new segment.
// The caller must check CanSend first.
func (s *ArqSender) SendNext() {
	seg := s.getSeg()
	seg.Seq = s.nextSeq
	s.nextSeq++
	seg.Len = s.segLen
	seg.sends = 1
	seg.sentAt = s.eng.Now()
	wasIdle := s.InFlight() == 0
	s.unacked = append(s.unacked, seg)
	s.Sent++
	if wasIdle {
		// The window was empty, so any pending timer deadline is stale
		// (set when older data was in flight). Reset it unconditionally —
		// re-arming from a stale rtoAt would fire a spurious timeout.
		s.rtoAt = s.eng.Now() + s.rto
		s.armTimer()
	}
	s.xmit(seg, false)
}

// OnAck processes a cumulative acknowledgment: everything below ack has
// been delivered in order at the receiver.
func (s *ArqSender) OnAck(ack uint32) {
	if ack > s.ackSeq {
		// Fresh ack: pop the acknowledged prefix. Karn's rule — only a
		// segment transmitted exactly once yields an RTT sample.
		var sampleAt sim.Time
		haveSample := false
		for s.head < len(s.unacked) && s.unacked[s.head].Seq < ack {
			seg := s.unacked[s.head]
			s.unacked[s.head] = nil
			s.head++
			s.Acked++
			if seg.sends == 1 {
				sampleAt = seg.sentAt
				haveSample = true
			}
			s.putSeg(seg)
		}
		if s.head > 0 && s.head*2 >= len(s.unacked) {
			n := copy(s.unacked, s.unacked[s.head:])
			s.unacked = s.unacked[:n]
			s.head = 0
		}
		s.ackSeq = ack
		s.dupAcks = 0
		if haveSample {
			s.updateRTT(s.eng.Now() - sampleAt)
		}
		if s.InFlight() > 0 {
			s.rtoAt = s.eng.Now() + s.rto
			s.armTimer()
		}
		return
	}
	if ack == s.ackSeq && s.InFlight() > 0 {
		s.dupAcks++
		s.DupAcks++
		if s.dupAcks == dupThresh {
			s.retransmit(true)
			s.rtoAt = s.eng.Now() + s.rto
			s.armTimer()
		}
	}
}

// retransmit resends the oldest unacknowledged segment. Karn's rule is
// enforced structurally: the bumped send count disqualifies the segment
// from ever producing an RTT sample.
func (s *ArqSender) retransmit(fast bool) {
	if s.InFlight() == 0 {
		return
	}
	seg := s.unacked[s.head]
	seg.sends++
	seg.sentAt = s.eng.Now()
	s.Retransmits++
	if fast {
		s.FastRetx++
	} else {
		s.TimeoutRetx++
	}
	s.xmit(seg, true)
}

// updateRTT folds a fresh RTT sample into the RFC 6298 estimator.
func (s *ArqSender) updateRTT(r sim.Time) {
	if !s.hasSRTT {
		s.srtt = r
		s.rttvar = r / 2
		s.hasSRTT = true
	} else {
		d := s.srtt - r
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + r) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

// armTimer ensures one pending timer event exists. The pending event may
// be armed for an earlier time than the current deadline; onTimer detects
// that and re-arms (lazy cancellation).
func (s *ArqSender) armTimer() {
	if s.timerArmed {
		return
	}
	s.timerArmed = true
	s.eng.At(s.rtoAt, s.timerFn)
}

// onTimer fires the retransmission timeout: exponential backoff, resend
// the oldest segment, restart the timer.
func (s *ArqSender) onTimer() {
	s.timerArmed = false
	if s.InFlight() == 0 {
		return // everything acked; the timer dies until the next send
	}
	now := s.eng.Now()
	if now < s.rtoAt {
		s.armTimer() // deadline moved out since this event was armed
		return
	}
	s.Timeouts++
	s.rto *= 2
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	s.dupAcks = 0
	s.retransmit(false)
	s.rtoAt = now + s.rto
	s.armTimer()
}

func (s *ArqSender) getSeg() *ArqSegment {
	if n := len(s.free); n > 0 {
		seg := s.free[n-1]
		s.free = s.free[:n-1]
		return seg
	}
	return &ArqSegment{}
}

func (s *ArqSender) putSeg(seg *ArqSegment) {
	seg.Hdr = nil
	s.free = append(s.free, seg)
}

// ReliableReceiver wraps a Receiver with the ARQ reorder window and the
// ACK return path. Data segments arrive through the host's RX DMA path as
// usual; every arrival — in-order, buffered, or dropped as a duplicate —
// is answered with a cumulative ACK transmitted through the host's TX DMA
// path (AllocSKB + Transmit), so the reverse direction pays the scheme's
// real map/unmap cost.
type ReliableReceiver struct {
	R   *Receiver
	Drv *Driver
	// AckRing/AckPort place the ACK transmissions.
	AckRing int
	AckPort int
	// Dest is the remote ArqSender the ACKs are delivered to (at TX
	// wire-completion time, so the RTT covers the full return path).
	Dest *ArqSender

	expect   uint32
	buf      []*SKBuff
	freeAcks []*ackTx

	// Stats.
	BufferedSegments uint64
	DroppedDup       uint64
	DroppedOow       uint64
	AcksSent         uint64
	AckSendErrors    uint64
}

const (
	// reorderWindow is the receiver's reorder window in segments.
	reorderWindow int = 64
	// ackLen is the ACK wire size.
	ackLen int = 64
)

// NewReliableReceiver builds the receiving half of a reliable flow.
func NewReliableReceiver(r *Receiver, drv *Driver, ackRing, ackPort int, dest *ArqSender) *ReliableReceiver {
	return &ReliableReceiver{
		R: r, Drv: drv, AckRing: ackRing, AckPort: ackPort, Dest: dest,
		expect: 1, buf: make([]*SKBuff, reorderWindow),
	}
}

// Expect returns the next in-order sequence number (the cumulative ACK
// value the receiver is currently advertising).
func (rr *ReliableReceiver) Expect() uint32 { return rr.expect }

// HandleSegment consumes one received skb (Driver.OnDeliver shape). The
// per-segment stack cost is identical to the plain Receiver's; on top of
// it the reorder window decides: deliver in order, buffer out-of-order,
// or drop duplicates/out-of-window arrivals. A checksum-failed segment
// never reaches here (the driver drops it at the completion ring), which
// leaves a hole the sender repairs by retransmission — corruption and
// loss are the same event from ARQ's point of view.
func (rr *ReliableReceiver) HandleSegment(t *sim.Task, skb *SKBuff) {
	r := rr.R
	r.chargeSegment(t)
	seq := skb.Seq
	switch {
	case seq < rr.expect:
		// Duplicate of already-delivered data (a retransmission that
		// crossed our ACK, or an injected duplicate).
		rr.dropDup(t, skb)
	case seq >= rr.expect+uint32(reorderWindow):
		// Beyond the reorder window: a well-behaved sender can't get
		// here (its window matches ours), so shed it.
		rr.DroppedOow++
		r.Dropped++
		r.K.recvDropOow.Inc()
		skb.Free(t)
	default:
		if !r.process(t, skb) {
			// Stack-level drop (access failure / netfilter): the hole
			// stays open and the sender's retransmission repairs it.
		} else if seq == rr.expect {
			r.deliver(t, skb)
			rr.expect++
			rr.flush(t)
		} else {
			slot := seq % uint32(len(rr.buf))
			if rr.buf[slot] != nil {
				rr.dropDup(t, skb)
			} else {
				rr.buf[slot] = skb
				rr.BufferedSegments++
			}
		}
	}
	rr.sendAck(t)
}

// flush delivers the in-order run now available in the reorder buffer.
func (rr *ReliableReceiver) flush(t *sim.Task) {
	for {
		slot := rr.expect % uint32(len(rr.buf))
		skb := rr.buf[slot]
		if skb == nil || skb.Seq != rr.expect {
			return
		}
		rr.buf[slot] = nil
		rr.R.deliver(t, skb)
		rr.expect++
	}
}

func (rr *ReliableReceiver) dropDup(t *sim.Task, skb *SKBuff) {
	rr.DroppedDup++
	rr.R.Dropped++
	rr.R.K.recvDropDup.Inc()
	skb.Free(t)
}

// sendAck transmits a cumulative ACK through the host TX path. An ACK
// that cannot be sent (TX ring full, quarantined device) is simply lost —
// cumulative ACKs make the next one carry the same information.
func (rr *ReliableReceiver) sendAck(t *sim.Task) {
	k := rr.R.K
	perf.Charge(t, k.Model.AckCycles)
	skb, err := AllocSKB(k, t, rr.Drv.NIC().ID(), ackLen, false)
	if err != nil {
		rr.AckSendErrors++
		return
	}
	if err := skb.CopyFromUser(t, nil, ackLen); err != nil {
		rr.AckSendErrors++
		skb.Free(t)
		return
	}
	a := rr.getAck()
	a.val = rr.expect
	skb.Owner = a
	if err := rr.Drv.Transmit(t, rr.AckRing, rr.AckPort, skb); err != nil {
		rr.AckSendErrors++
		skb.Free(t)
		rr.putAck(a)
		return
	}
	rr.AcksSent++
}

// ackTx carries one ACK's cumulative value through the TX ring; TxDone
// fires at wire completion, which is when the remote sender learns of it
// (the RTT therefore covers the full return path). Pooled, so the ACK
// path allocates nothing in steady state.
type ackTx struct {
	rr  *ReliableReceiver
	val uint32
}

func (a *ackTx) TxDone(t *sim.Task, skb *SKBuff) {
	skb.Free(t)
	rr, val := a.rr, a.val
	rr.putAck(a)
	if rr.Dest != nil {
		rr.Dest.OnAck(val)
	}
}

func (rr *ReliableReceiver) getAck() *ackTx {
	if n := len(rr.freeAcks); n > 0 {
		a := rr.freeAcks[n-1]
		rr.freeAcks = rr.freeAcks[:n-1]
		return a
	}
	return &ackTx{rr: rr}
}

func (rr *ReliableReceiver) putAck(a *ackTx) {
	rr.freeAcks = append(rr.freeAcks, a)
}
