package netstack

import (
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

// Receiver is the kernel+application side of one inbound TCP stream (a
// netperf TCP_STREAM receive flow): interrupt-context stack processing,
// netfilter, and the user-boundary copy performed by the blocked read.
type Receiver struct {
	K *Kernel
	// ExtraCycles is per-segment workload overhead on top of the model's
	// RXSegCycles — the per-figure calibration knob (multi-instance
	// cache/scheduler effects; see EXPERIMENTS.md).
	ExtraCycles float64
	// Wakeup charges the blocked-reader wakeup on every segment
	// (multi-instance runs where the app sleeps between segments).
	Wakeup bool
	// AckCost charges the bidirectional ACK-competition cost (§6.1).
	AckCost bool

	// Stats. Dropped is the total; the per-cause splits below (and their
	// stats-registry counterparts, see Kernel.SetStats) say why.
	Bytes    uint64
	Segments uint64
	Dropped  uint64
	// DroppedAccess counts segments the stack could not even look at
	// (header access failed — e.g. safe-copy allocation failure under an
	// injected AllocFail).
	DroppedAccess uint64
	// DroppedFilter counts segments a netfilter hook rejected.
	DroppedFilter uint64
}

// DemuxFlows returns a Driver.OnDeliver hook that hands each received skb
// to the handler registered for its flow id and frees the skbs of every
// other flow. The map is read at delivery time, so handlers added after
// the hook is installed are served too.
func DemuxFlows[H interface{ HandleSegment(*sim.Task, *SKBuff) }](byFlow map[int]H) func(t *sim.Task, ring int, skb *SKBuff) {
	return func(t *sim.Task, _ int, skb *SKBuff) {
		if h, ok := byFlow[skb.Flow]; ok {
			h.HandleSegment(t, skb)
			return
		}
		skb.Free(t)
	}
}

// HandleSegment consumes one received skb; runs in interrupt context.
func (r *Receiver) HandleSegment(t *sim.Task, skb *SKBuff) {
	r.chargeSegment(t)
	if !r.process(t, skb) {
		return
	}
	r.deliver(t, skb)
}

// chargeSegment pays the per-segment interrupt-context cost (stack
// processing plus the per-figure calibration knobs).
func (r *Receiver) chargeSegment(t *sim.Task) {
	m := r.K.Model
	perf.Charge(t, m.RXSegCycles+r.ExtraCycles)
	if r.Wakeup {
		perf.Charge(t, m.WakeupCycles)
	}
	if r.AckCost {
		perf.Charge(t, m.AckCycles)
	}
}

// process runs header access and netfilter; on failure it frees the skb,
// records the drop cause, and returns false.
func (r *Receiver) process(t *sim.Task, skb *SKBuff) bool {
	m := r.K.Model
	// The stack reads the headers — under DAMN this is the accessor
	// interposition that copies them out of the device's reach (§5.2).
	hdrLen := m.DamnHeaderBytes
	if _, err := skb.Access(t, hdrLen); err != nil {
		r.Dropped++
		r.DroppedAccess++
		r.K.recvDropAccess.Inc()
		skb.Free(t)
		return false
	}
	if r.K.Netfilter.Run(t, skb) == Drop {
		r.Dropped++
		r.DroppedFilter++
		r.K.recvDropFilter.Inc()
		skb.Free(t)
		return false
	}
	return true
}

// deliver performs the application's read() — the user-boundary copy that
// makes the payload unreachable by the device — and frees the skb.
func (r *Receiver) deliver(t *sim.Task, skb *SKBuff) {
	skb.CopyToUser(t, skb.Len())
	r.Bytes += uint64(skb.Len())
	r.Segments++
	skb.Free(t)
}

// Sender is one outbound TCP stream: the application writes into a socket
// whose in-flight window is bounded by the socket buffer; TSO-sized
// segments are mapped and handed to the NIC; completions (ACK-clocked)
// reopen the window.
type Sender struct {
	K      *Kernel
	Drv    *Driver
	Core   *sim.Core
	Ring   int
	PortID int
	Flow   int
	// Dev overrides the device identity TX buffers are allocated and
	// mapped for (a tenant's virtual function); 0 means the NIC's own id.
	Dev int
	// Hash is the RSS hash stamped on outbound segments; the far end of a
	// topology link steers by it. Zero lands on the receiver's ring 0.
	Hash uint32
	// ExtraCycles per segment (per-figure calibration).
	ExtraCycles float64
	// AckCost charges bidirectional ACK competition.
	AckCost bool
	// Wakeup charges the writer wakeup per segment.
	Wakeup bool

	inFlight int
	pumping  bool
	stopped  bool
	// pumpFn is the pump task closure, bound once on first use so window
	// refills don't allocate.
	pumpFn func(*sim.Task)

	// Stats.
	Bytes    uint64
	Segments uint64
	Errors   uint64
}

// senderWindow is the socket send-buffer size, in TSO segments.
const senderWindow int = 16

// Start begins transmitting; the flow runs until Stop.
func (s *Sender) Start() { s.schedulePump() }

// Stop halts the flow after in-flight segments drain.
func (s *Sender) Stop() { s.stopped = true }

// Kick re-arms a stalled pump. When a device is quarantined, Transmit
// returns an error and the pump parks with the window open but no
// completions due that would restart it; the recovery supervisor calls
// Kick after reinitialisation so the flow resumes.
func (s *Sender) Kick() { s.schedulePump() }

func (s *Sender) schedulePump() {
	if s.pumping || s.stopped {
		return
	}
	s.pumping = true
	if s.pumpFn == nil {
		s.pumpFn = func(t *sim.Task) {
			s.pumping = false
			s.pump(t)
		}
	}
	s.Core.Submit(false, s.pumpFn)
}

// pump fills the window; it runs as an application/syscall task.
func (s *Sender) pump(t *sim.Task) {
	m := s.K.Model
	// seg is the TSO aggregate (64 KiB).
	seg := m.SegmentSize
	dev := s.Dev
	if dev == 0 {
		dev = s.Drv.NIC().ID()
	}
	for !s.stopped && s.inFlight+seg <= senderWindow*seg {
		skb, err := AllocSKB(s.K, t, dev, seg, false)
		if err != nil {
			s.Errors++
			return
		}
		skb.Flow = s.Flow
		skb.Hash = s.Hash
		skb.Owner = s
		// The user's write(): copy at the user/kernel boundary.
		if err := skb.CopyFromUser(t, nil, seg); err != nil {
			s.Errors++
			skb.Free(t)
			return
		}
		perf.Charge(t, m.TXSegCycles+s.ExtraCycles)
		if s.AckCost {
			perf.Charge(t, m.AckCycles)
		}
		if s.Wakeup {
			perf.Charge(t, m.WakeupCycles)
		}
		if err := s.Drv.Transmit(t, s.Ring, s.PortID, skb); err != nil {
			// TX ring full: free and retry when completions arrive.
			s.Errors++
			skb.Free(t)
			return
		}
		s.inFlight += seg
	}
}

// TxDone is invoked (via skb.Owner dispatch) when a segment completes.
func (s *Sender) TxDone(t *sim.Task, skb *SKBuff) {
	s.inFlight -= skb.Len()
	s.Bytes += uint64(skb.Len())
	s.Segments++
	skb.Free(t)
	if seg := s.K.Model.SegmentSize; !s.stopped && s.inFlight+seg <= senderWindow*seg {
		s.schedulePump()
	}
}

// TxCompleter receives transmit completions for skbs it owns.
type TxCompleter interface {
	TxDone(t *sim.Task, skb *SKBuff)
}

// DispatchTxDone is a Driver.OnTxDone adapter routing completions back to
// their owning endpoints.
func DispatchTxDone(t *sim.Task, ring int, skb *SKBuff) {
	if c, ok := skb.Owner.(TxCompleter); ok {
		c.TxDone(t, skb)
		return
	}
	skb.Free(t)
}
