package netstack_test

import (
	"net/netip"
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// --- Pure sender state-machine tests (no machine, just the engine) ---

func TestArqRTOEstimator(t *testing.T) {
	eng := sim.NewEngine(1)
	arq := netstack.NewArqSender(eng, 100, func(*netstack.ArqSegment, bool) {})

	// First sample: srtt = R, rttvar = R/2, rto = srtt + 4*rttvar = 3R.
	arq.SendNext()
	eng.Run(100 * sim.Microsecond)
	arq.OnAck(2)
	if got, want := arq.SRTT(), 100*sim.Microsecond; got != want {
		t.Fatalf("srtt after first sample: %v, want %v", got, want)
	}
	if got, want := arq.RTO(), 300*sim.Microsecond; got != want {
		t.Fatalf("rto after first sample: %v, want %v", got, want)
	}

	// Second sample R'=200µs: rttvar = (3*50+|100-200|)/4 = 62.5µs,
	// srtt = (7*100+200)/8 = 112.5µs, rto = 362.5µs.
	arq.SendNext()
	eng.Run(eng.Now() + 200*sim.Microsecond)
	arq.OnAck(3)
	if got := arq.SRTT(); got.Seconds() != 112.5e-6 {
		t.Fatalf("srtt after second sample: %v, want 112.5µs", got)
	}
	if got := arq.RTO(); got.Seconds() != 362.5e-6 {
		t.Fatalf("rto after second sample: %v, want 362.5µs", got)
	}
}

func TestArqTimeoutBackoffAndKarn(t *testing.T) {
	eng := sim.NewEngine(1)
	var sends, retx int
	arq := netstack.NewArqSender(eng, 100, func(seg *netstack.ArqSegment, isRetx bool) {
		sends++
		if isRetx {
			retx++
		}
	})

	// Never acked: timeouts fire with exponential backoff from the 1 ms
	// initial RTO until the 10 ms clamp holds it.
	arq.SendNext()
	eng.Run(sim.Millisecond)
	if arq.Timeouts != 1 || arq.TimeoutRetx != 1 {
		t.Fatalf("after 1ms: timeouts=%d retx=%d, want 1/1", arq.Timeouts, arq.TimeoutRetx)
	}
	if got, want := arq.RTO(), 2*sim.Millisecond; got != want {
		t.Fatalf("rto after first timeout: %v, want %v", got, want)
	}
	eng.Run(3 * sim.Millisecond) // second timeout at t=1ms+2ms
	if got, want := arq.RTO(), 4*sim.Millisecond; got != want {
		t.Fatalf("rto after second timeout: %v, want %v", got, want)
	}
	eng.Run(7 * sim.Millisecond) // third timeout at t=3ms+4ms
	if got, want := arq.RTO(), 8*sim.Millisecond; got != want {
		t.Fatalf("rto after third timeout: %v, want %v", got, want)
	}
	eng.Run(15 * sim.Millisecond) // fourth timeout at t=7ms+8ms; clamped
	if got, want := arq.RTO(), 10*sim.Millisecond; got != want {
		t.Fatalf("rto clamp: %v, want %v", got, want)
	}
	eng.Run(25 * sim.Millisecond) // fifth timeout at t=15ms+10ms; stays clamped
	if got, want := arq.RTO(), 10*sim.Millisecond; got != want {
		t.Fatalf("rto clamp after fifth timeout: %v, want %v", got, want)
	}
	if arq.Timeouts != 5 {
		t.Fatalf("timeouts: %d, want 5", arq.Timeouts)
	}

	// Karn's rule: the segment was retransmitted, so its eventual ack
	// must not produce an RTT sample.
	arq.OnAck(2)
	if arq.SRTT() != 0 {
		t.Fatalf("retransmitted segment produced an RTT sample: srtt=%v", arq.SRTT())
	}
	if arq.InFlight() != 0 {
		t.Fatalf("in-flight after ack: %d", arq.InFlight())
	}
	eng.RunUntilIdle() // pending timer dies quietly with nothing in flight
	if arq.Timeouts != 5 {
		t.Fatalf("spurious timeout after ack: %d", arq.Timeouts)
	}
}

func TestArqFastRetransmitOnDupAcks(t *testing.T) {
	eng := sim.NewEngine(1)
	var retxSeqs []uint32
	arq := netstack.NewArqSender(eng, 100, func(seg *netstack.ArqSegment, isRetx bool) {
		if isRetx {
			retxSeqs = append(retxSeqs, seg.Seq)
		}
	})

	for i := 0; i < 5; i++ {
		arq.SendNext()
	}
	// Receiver saw 2,3,4 but not 1: three duplicate cumulative ACKs.
	arq.OnAck(1)
	arq.OnAck(1)
	if len(retxSeqs) != 0 {
		t.Fatalf("retransmit before dup threshold: %v", retxSeqs)
	}
	arq.OnAck(1)
	if len(retxSeqs) != 1 || retxSeqs[0] != 1 {
		t.Fatalf("fast retransmit: %v, want [1]", retxSeqs)
	}
	if arq.FastRetx != 1 || arq.DupAcks != 3 {
		t.Fatalf("fastretx=%d dupacks=%d, want 1/3", arq.FastRetx, arq.DupAcks)
	}
	// The retransmission repairs the hole; the cumulative ack releases
	// everything at once.
	arq.OnAck(6)
	if arq.InFlight() != 0 || arq.AckSeq() != 6 {
		t.Fatalf("after repair: inflight=%d ack=%d", arq.InFlight(), arq.AckSeq())
	}
}

func TestArqPartialAckNeedsOwnDupAcks(t *testing.T) {
	eng := sim.NewEngine(1)
	var retxSeqs []uint32
	arq := netstack.NewArqSender(eng, 100, func(seg *netstack.ArqSegment, isRetx bool) {
		if isRetx {
			retxSeqs = append(retxSeqs, seg.Seq)
		}
	})

	// Segments 1 and 2 both lost; 3..6 arrive and generate dup-ACKs.
	for i := 0; i < 6; i++ {
		arq.SendNext()
	}
	arq.OnAck(1)
	arq.OnAck(1)
	arq.OnAck(1) // fast retransmit of 1
	if len(retxSeqs) != 1 || retxSeqs[0] != 1 {
		t.Fatalf("fast retransmit: %v, want [1]", retxSeqs)
	}
	// Retransmitted 1 arrives; the ack advances only to 2. A partial ack
	// must NOT auto-retransmit (that rule melts down when the ACK path
	// lags delivery — see the package comment); hole 2 earns its own
	// dup-ACKs instead.
	arq.OnAck(2)
	if len(retxSeqs) != 1 {
		t.Fatalf("partial ack retransmitted spuriously: %v", retxSeqs)
	}
	arq.OnAck(2)
	arq.OnAck(2)
	arq.OnAck(2)
	if len(retxSeqs) != 2 || retxSeqs[1] != 2 {
		t.Fatalf("second hole's fast retransmit: %v, want [1 2]", retxSeqs)
	}
	arq.OnAck(7)
	if arq.InFlight() != 0 {
		t.Fatalf("in-flight after recovery: %d", arq.InFlight())
	}
}

func TestArqWindowBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	arq := netstack.NewArqSender(eng, 100, func(*netstack.ArqSegment, bool) {})
	// The window admits 64 segments, the receiver's reorder window.
	for i := 0; i < 64; i++ {
		if !arq.CanSend() {
			t.Fatalf("window closed early at %d", i)
		}
		arq.SendNext()
	}
	if arq.CanSend() {
		t.Fatal("window open at capacity")
	}
	arq.OnAck(2)
	if !arq.CanSend() {
		t.Fatal("window closed after ack")
	}
}

func TestArqLazyTimerNoSpuriousTimeout(t *testing.T) {
	eng := sim.NewEngine(1)
	arq := netstack.NewArqSender(eng, 100, func(*netstack.ArqSegment, bool) {})

	// Seg 1 at t=0 arms the timer for t=1ms. Its ack at t=0.5ms samples
	// RTT=500µs (rto becomes 500 + 4*250 = 1.5ms); seg 2 goes out at
	// t=0.5ms, so the true deadline is t=2ms — but the pending event
	// still fires at t=1ms. It must re-arm, not time out.
	arq.SendNext()
	eng.Run(500 * sim.Microsecond)
	arq.OnAck(2)
	arq.SendNext()
	if got, want := arq.RTO(), 1500*sim.Microsecond; got != want {
		t.Fatalf("rto after sample: %v, want %v", got, want)
	}
	eng.Run(1900 * sim.Microsecond)
	if arq.Timeouts != 0 {
		t.Fatalf("spurious timeout at stale deadline: %d", arq.Timeouts)
	}
	eng.Run(2 * sim.Millisecond)
	if arq.Timeouts != 1 {
		t.Fatalf("timeout missing at true deadline: %d", arq.Timeouts)
	}
}

// --- End-to-end tests through a machine (real DMA path both ways) ---

// arqHarness wires an ArqSender (the remote generator half) to a
// ReliableReceiver on a real machine; drop[seq] counts how many times the
// wire eats that sequence number's transmission.
type arqHarness struct {
	ma   *testbed.Machine
	arq  *netstack.ArqSender
	rr   *netstack.ReliableReceiver
	recv *netstack.Receiver
	drop map[uint32]int
	dup  map[uint32]int
}

func newArqHarness(t *testing.T, scheme testbed.Scheme) *arqHarness {
	t.Helper()
	ma := newMachine(t, scheme, 1)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	h := &arqHarness{
		ma:   ma,
		drop: map[uint32]int{},
		dup:  map[uint32]int{},
	}
	src := netip.AddrFrom4([4]byte{192, 168, 0, 1})
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	hash := netstack.RSSHashIPv4(src, dst, 10001, 5001)
	const segLen = 1500
	h.arq = netstack.NewArqSender(ma.Sim, segLen, func(seg *netstack.ArqSegment, retx bool) {
		if !retx {
			seg.Hdr = netstack.AppendHeaders(seg.HdrBuf(), src, dst, 10001, 5001, seg.Seq, segLen-netstack.HeaderLen)
		}
		if h.drop[seg.Seq] > 0 {
			h.drop[seg.Seq]--
			return
		}
		n := 1
		if h.dup[seg.Seq] > 0 {
			n += h.dup[seg.Seq]
			h.dup[seg.Seq] = 0
		}
		for i := 0; i < n; i++ {
			h.ma.NIC.InjectRX(0, device.Segment{
				Flow: 1, Hash: hash, Seq: seg.Seq, Len: segLen, Header: seg.Hdr,
			})
		}
	})
	h.recv = &netstack.Receiver{K: ma.Kernel}
	h.rr = netstack.NewReliableReceiver(h.recv, ma.Driver, 0, 0, h.arq)
	ma.Driver.OnDeliver = func(tk *sim.Task, ring int, skb *netstack.SKBuff) {
		h.rr.HandleSegment(tk, skb)
	}
	return h
}

func (h *arqHarness) send(n int) {
	for i := 0; i < n; i++ {
		if !h.arq.CanSend() {
			break
		}
		h.arq.SendNext()
	}
}

func TestArqInOrderDelivery(t *testing.T) {
	h := newArqHarness(t, testbed.SchemeDAMN)
	h.send(20)
	h.ma.Sim.RunUntilIdle()
	if h.recv.Segments != 20 {
		t.Fatalf("delivered %d, want 20", h.recv.Segments)
	}
	if h.arq.InFlight() != 0 || h.arq.AckSeq() != 21 {
		t.Fatalf("inflight=%d ack=%d, want 0/21", h.arq.InFlight(), h.arq.AckSeq())
	}
	if h.arq.Retransmits != 0 {
		t.Fatalf("retransmits on a clean wire: %d", h.arq.Retransmits)
	}
	if h.rr.AcksSent != 20 {
		t.Fatalf("acks sent: %d, want 20", h.rr.AcksSent)
	}
}

func TestArqLossRecoveredByFastRetransmit(t *testing.T) {
	for _, scheme := range testbed.AllSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			h := newArqHarness(t, scheme)
			h.drop[3] = 1 // first transmission of seq 3 is eaten
			h.send(10)
			h.ma.Sim.RunUntilIdle()
			if h.recv.Segments != 10 {
				t.Fatalf("delivered %d, want 10", h.recv.Segments)
			}
			if h.arq.Retransmits == 0 {
				t.Fatal("loss repaired without a retransmission?")
			}
			if h.rr.BufferedSegments == 0 {
				t.Fatal("no out-of-order buffering despite a hole")
			}
			if h.arq.InFlight() != 0 || h.rr.Expect() != 11 {
				t.Fatalf("inflight=%d expect=%d, want 0/11", h.arq.InFlight(), h.rr.Expect())
			}
		})
	}
}

func TestArqTimeoutRecoversTailLoss(t *testing.T) {
	h := newArqHarness(t, testbed.SchemeDAMN)
	// A lone segment lost: no later traffic, so no dup-ACKs — only the
	// RTO can repair it.
	h.drop[1] = 1
	h.send(1)
	h.ma.Sim.RunUntilIdle()
	if h.recv.Segments != 1 {
		t.Fatalf("delivered %d, want 1", h.recv.Segments)
	}
	if h.arq.TimeoutRetx == 0 || h.arq.Timeouts == 0 {
		t.Fatalf("tail loss repaired without a timeout: retx=%d timeouts=%d", h.arq.TimeoutRetx, h.arq.Timeouts)
	}
}

func TestArqDuplicateSuppression(t *testing.T) {
	h := newArqHarness(t, testbed.SchemeDAMN)
	h.dup[5] = 1 // wire delivers seq 5 twice
	h.send(10)
	h.ma.Sim.RunUntilIdle()
	if h.recv.Segments != 10 {
		t.Fatalf("delivered %d, want 10", h.recv.Segments)
	}
	if h.rr.DroppedDup != 1 {
		t.Fatalf("dup drops: %d, want 1", h.rr.DroppedDup)
	}
	if h.recv.Bytes != 10*1500 {
		t.Fatalf("goodput bytes %d, want %d (duplicate must not count)", h.recv.Bytes, 10*1500)
	}
}

func TestArqOutOfWindowDrop(t *testing.T) {
	h := newArqHarness(t, testbed.SchemeDAMN)
	// A rogue segment far beyond the reorder window must be shed, not
	// buffered (its slot would collide with live sequence numbers).
	hdr := netstack.BuildHeaders(netip.AddrFrom4([4]byte{192, 168, 0, 1}), netip.AddrFrom4([4]byte{10, 0, 0, 1}), 10001, 5001, 999, 1446)
	h.ma.NIC.InjectRX(0, device.Segment{Flow: 1, Hash: 0, Seq: 999, Len: 1500, Header: hdr})
	h.ma.Sim.RunUntilIdle()
	if h.rr.DroppedOow != 1 {
		t.Fatalf("out-of-window drops: %d, want 1", h.rr.DroppedOow)
	}
	if h.recv.Segments != 0 {
		t.Fatalf("delivered %d, want 0", h.recv.Segments)
	}
	// The flow still works afterwards.
	h.send(5)
	h.ma.Sim.RunUntilIdle()
	if h.recv.Segments != 5 {
		t.Fatalf("delivered %d after oow drop, want 5", h.recv.Segments)
	}
}

func TestArqReorderWindowDelivery(t *testing.T) {
	h := newArqHarness(t, testbed.SchemeDAMN)
	// Hold seq 1's first copy, let 2..4 race ahead, then release 1 via
	// retransmission: delivery must come out strictly in order.
	h.drop[1] = 1
	var order []uint32
	prev := h.ma.Driver.OnDeliver
	h.ma.Driver.OnDeliver = func(tk *sim.Task, ring int, skb *netstack.SKBuff) {
		seq := skb.Seq
		before := h.rr.Expect()
		prev(tk, ring, skb)
		if h.rr.Expect() > before {
			// Something was delivered this call; reconstruct the run.
			for s := before; s < h.rr.Expect(); s++ {
				order = append(order, s)
			}
		}
		_ = seq
	}
	h.send(4)
	h.ma.Sim.RunUntilIdle()
	if h.recv.Segments != 4 {
		t.Fatalf("delivered %d, want 4", h.recv.Segments)
	}
	for i, s := range order {
		if s != uint32(i+1) {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}
