package iommu

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// The OS controls the IOTLB through an *invalidation queue* — "a cyclic
// buffer from which the IOMMU reads commands" (§3 of the paper). Every
// caller here submits its commands and waits for the hardware to execute
// them in one call; the schemes differ only in when they call: strict on
// every unmap, deferred once per batch of unmaps, which is the window the
// deferred scheme leaves open.

// CommandKind selects an invalidation command type.
type CommandKind uint8

const (
	// InvRange invalidates the IOTLB entries overlapping an IOVA range
	// of one device.
	InvRange CommandKind = iota
	// InvDomain invalidates everything belonging to one device
	// (domain-selective invalidation).
	InvDomain
)

// Command is one invalidation-queue entry.
type Command struct {
	Kind CommandKind
	Dev  int
	Base IOVA
	Size int
}

// InvQueueDepth is the cyclic buffer capacity (VT-d queues are a few
// hundred entries; 256 matches Linux's default allocation).
const InvQueueDepth = 256

// InvalidationQueue is the cyclic command buffer between the OS and the
// hardware.
type InvalidationQueue struct {
	tlb *IOTLB
	inj *faults.Injector // set via IOMMU.SetFaults

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
// queue depth each command is written at, and the batch sizes the hardware
// drains. The queue's own counts are views IOMMU.SetStats registers.
func (q *InvalidationQueue) SetStats(r *stats.Registry) {
	q.wrapDrainC = r.Counter("iommu", "invq_wrap_drains")
	q.rejectedC = r.Counter("iommu", "invq_rejected")
	q.depthHist = r.Histogram("iommu", "invq_depth")
	q.drainHist = r.Histogram("iommu", "invq_drain_batch")
}

// maxITERetries bounds the retry loop: after this many consecutive
// time-outs the OS gives up waiting and proceeds (the hardware has, by
// then, had orders of magnitude longer than one timeout window to respond
// — matching Linux, which complains but does not halt).
const maxITERetries = 8

// Invalidate submits cmds in order and waits until the hardware has
// executed them all. A range of size 0 or less rejects the whole batch
// before any command is written. The ring holds InvQueueDepth commands, so
// a longer batch wraps: the OS waits for each full ring to drain before
// writing on, as the VT-d driver does. The wait handles VT-d Invalidation
// Time-out Errors: on an (injected) time-out it charges the timed-out wait
// to c, backs off exponentially and retries, so ITE recovery is simulated
// time on the calling task like any other cost. The command latency itself
// is charged by the caller (perf.Model.IOTLBInvLatency).
func (q *InvalidationQueue) Invalidate(c perf.Charger, timeout sim.Time, cmds ...Command) error {
	for _, cmd := range cmds {
		if cmd.Kind == InvRange && cmd.Size <= 0 {
			q.rejectedC.Inc()
			return fmt.Errorf("iommu: range invalidation with size %d", cmd.Size)
		}
	}
	for i := range cmds {
		slot := i % InvQueueDepth
		if i > 0 && slot == 0 {
			q.wrapDrainC.Inc()
			q.drainHist.Observe(InvQueueDepth)
		}
		q.depthHist.Observe(float64(slot))
	}
	q.Submitted += uint64(len(cmds))

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

	for _, cmd := range cmds {
		if cmd.Kind == InvRange {
			q.tlb.InvalidateRange(cmd.Dev, cmd.Base, cmd.Size)
		} else {
			q.tlb.InvalidateDevice(cmd.Dev)
		}
	}
	q.Processed += uint64(len(cmds))
	if n := len(cmds); n > 0 {
		q.drainHist.Observe(float64((n-1)%InvQueueDepth + 1))
	}
	return nil
}
