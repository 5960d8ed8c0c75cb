package iommu

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// The OS controls the IOTLB through an *invalidation queue* — "a cyclic
// buffer from which the IOMMU reads commands" (§3 of the paper). The
// protection schemes submit commands here; invalidations take effect only
// when the hardware drains the queue, which is exactly the semantics that
// separates strict (submit + wait for drain) from deferred (submit and move
// on, leaving the window open).

// CommandKind selects an invalidation command type.
type CommandKind uint8

const (
	// InvRange invalidates the IOTLB entries overlapping an IOVA range
	// of one device.
	InvRange CommandKind = iota
	// InvDomain invalidates everything belonging to one device
	// (domain-selective invalidation).
	InvDomain
	// InvGlobal invalidates the whole IOTLB.
	InvGlobal
	// InvWait is a fence: hardware acknowledges it only after every
	// earlier command has executed (used by strict-mode waits).
	InvWait
)

func (k CommandKind) String() string {
	switch k {
	case InvRange:
		return "range"
	case InvDomain:
		return "domain"
	case InvGlobal:
		return "global"
	case InvWait:
		return "wait"
	default:
		return "?"
	}
}

// Command is one invalidation-queue entry.
type Command struct {
	Kind CommandKind
	Dev  int
	Base IOVA
	Size int
	// Acked is set by the hardware when an InvWait executes.
	Acked *bool
}

// InvQueueDepth is the cyclic buffer capacity (VT-d queues are a few
// hundred entries; 256 matches Linux's default allocation).
const InvQueueDepth = 256

// InvalidationQueue is the cyclic command buffer. The OS is the producer
// (Submit); the hardware is the consumer (Drain).
type InvalidationQueue struct {
	tlb *IOTLB
	inj *faults.Injector // set via IOMMU.SetFaults

	buf   [InvQueueDepth]Command
	head  int // next slot the hardware reads
	tail  int // next slot the OS writes
	count int

	Submitted   uint64
	Processed   uint64
	ITETimeouts uint64 // injected invalidation time-outs survived

	// Observability (nil-safe handles; see SetStats).
	wrapDrainC *stats.Counter
	rejectedC  *stats.Counter
	depthHist  *stats.Histogram
	drainHist  *stats.Histogram
}

// NewInvalidationQueue builds a queue feeding the given IOTLB.
func NewInvalidationQueue(tlb *IOTLB) *InvalidationQueue {
	return &InvalidationQueue{tlb: tlb}
}

// SetStats attaches a metrics registry: wrap drains, rejected commands, the
// queue-depth distribution observed at submit, and the batch sizes the
// hardware drains. The queue's own counts are views IOMMU.SetStats
// registers.
func (q *InvalidationQueue) SetStats(r *stats.Registry) {
	q.wrapDrainC = r.Counter("iommu", "invq_wrap_drains")
	q.rejectedC = r.Counter("iommu", "invq_rejected")
	q.depthHist = r.Histogram("iommu", "invq_depth")
	q.drainHist = r.Histogram("iommu", "invq_drain_batch")
}

// Pending reports queued, not-yet-executed commands.
func (q *InvalidationQueue) Pending() int { return q.count }

// Submit enqueues a command; it does NOT take effect until the hardware
// drains the queue. A full queue forces the OS to drain synchronously
// first (as the VT-d driver does when the queue wraps). Validation runs
// BEFORE the wrap-handling, so an invalid command is rejected outright and
// can never trigger a spurious synchronous drain.
func (q *InvalidationQueue) Submit(cmd Command) error {
	if cmd.Kind == InvRange && cmd.Size <= 0 {
		q.rejectedC.Inc()
		return fmt.Errorf("iommu: range invalidation with size %d", cmd.Size)
	}
	if q.count == InvQueueDepth {
		// Hardware consumes commands far faster than software can
		// produce them in practice; model the wrap case by draining.
		q.wrapDrainC.Inc()
		q.Drain()
	}
	q.depthHist.Observe(float64(q.count))
	q.buf[q.tail] = cmd
	q.tail = (q.tail + 1) % InvQueueDepth
	q.count++
	q.Submitted++
	return nil
}

// Drain executes every pending command in FIFO order and returns how many
// ran. This is the "hardware" side; callers charge its latency separately
// (perf.Model.IOTLBInvLatency per command).
//
// Adjacent range invalidations for the same device (each command starting
// where the previous one ended — the pattern a scatter/gather unmap or a
// chunk teardown produces) are coalesced into a single IOTLB walk. The
// command count returned, Processed and the drain-batch histogram still
// reflect the original commands; only the number of IOTLB flush operations
// (the TLB's FlushCommands) shrinks, and the set of entries dropped is
// identical because range invalidation is linear in its page span.
func (q *InvalidationQueue) Drain() int {
	n := 0
	for q.count > 0 {
		cmd := q.buf[q.head]
		q.head = (q.head + 1) % InvQueueDepth
		q.count--
		n++
		q.Processed++
		if cmd.Kind == InvRange {
			for q.count > 0 {
				next := &q.buf[q.head]
				if next.Kind != InvRange || next.Dev != cmd.Dev ||
					next.Base != cmd.Base+IOVA(cmd.Size) {
					break
				}
				cmd.Size += next.Size
				q.head = (q.head + 1) % InvQueueDepth
				q.count--
				n++
				q.Processed++
			}
		}
		q.execute(cmd)
	}
	if n > 0 {
		q.drainHist.Observe(float64(n))
	}
	return n
}

// maxITERetries bounds the retry loop: after this many consecutive
// time-outs the OS gives up waiting and proceeds with the drain (the
// hardware has, by then, had orders of magnitude longer than one timeout
// window to respond — matching Linux, which complains but does not halt).
const maxITERetries = 8

// DrainRetry is the OS-side synchronous drain with VT-d ITE handling: wait
// for the queue to empty, and on an (injected) Invalidation Time-out Error
// charge the timed-out wait to the caller, back off exponentially and
// retry. With fault injection off it is exactly Drain. The total stall is
// simulated time on the calling task, so ITE recovery is as measurable as
// any other cost.
func (q *InvalidationQueue) DrainRetry(c perf.Charger, timeout sim.Time) int {
	if timeout <= 0 {
		timeout = 10 * sim.Microsecond
	}
	var waited sim.Time
	backoff := timeout
	for attempt := 0; attempt < maxITERetries && q.inj.Should(faults.InvTimeout); attempt++ {
		q.ITETimeouts++
		perf.ChargeTime(c, backoff)
		waited += backoff
		backoff *= 2
	}
	if waited > 0 {
		q.inj.ObserveRecovery(faults.InvTimeout, waited)
	}
	return q.Drain()
}

func (q *InvalidationQueue) execute(cmd Command) {
	switch cmd.Kind {
	case InvRange:
		q.tlb.InvalidateRange(cmd.Dev, cmd.Base, cmd.Size)
	case InvDomain:
		q.tlb.InvalidateDevice(cmd.Dev)
	case InvGlobal:
		q.tlb.InvalidateAll()
	case InvWait:
		if cmd.Acked != nil {
			*cmd.Acked = true
		}
	}
}
