// Package sim is the discrete-event simulation engine underneath the
// evaluation harness. It provides a deterministic event loop over simulated
// time (a radix-heap event queue that pops in exact (time, push order)
// order), simulated CPU cores that charge cycle costs, simulated spinlocks
// whose contention serializes in simulated time (reproducing the
// invalidation-lock collapse of strict IOMMU mode), and fluid-flow resources
// that model bandwidth ceilings (the memory controller, NIC wire rate and
// the PCIe link).
//
// The design follows the "real structures, simulated time" rule from
// DESIGN.md: functional kernel code (allocators, IOMMU updates, packet
// processing) executes inline inside event callbacks on the single engine
// goroutine, while its *cost* is charged to simulated cores. All results are
// therefore deterministic and independent of the host machine.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/asplos18/damn/internal/stats"
)

// Time is simulated time in picoseconds. One cycle of a 2 GHz core is
// 500 ps; an int64 of picoseconds covers ~106 days of simulated time, far
// beyond the 30-minute Fig 9 run.
type Time int64

// Time unit helpers.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts simulated time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to simulated time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// event is a scheduled callback. Its time lives in the queue node that
// holds it (see eventQueue), not here.
type event struct {
	fn func()
	// cancelled events stay in the queue (unlinking from the middle of a
	// bucket is O(n)) but are skipped on pop: they neither execute,
	// nor advance time, nor count as processed. When more than half the
	// queue is cancelled the engine compacts it (see compact).
	cancelled bool
	// queued tracks queue membership so cancel of a currently-executing
	// ticker event (popped, not re-enqueued yet) doesn't corrupt the
	// cancelled-entry accounting.
	queued bool
	// pinned events are owned by a long-lived caller (Every reuses one
	// event for every tick); they are never returned to the free pool.
	pinned bool
	// tick points back to the owning ticker for pinned ticker events, so
	// discarding a stopped ticker's cancelled event recycles the whole
	// ticker (struct + bound closures) instead of leaking it to the GC.
	tick *ticker
}

// ticker is the reusable state behind Every: one pinned event, the wrapper
// and stop closures bound once at construction, and the per-use callback.
// Stopped tickers return to the engine's free list, so a start/stop ticker
// storm allocates nothing at steady state.
type ticker struct {
	e       *Engine
	ev      event
	fn      func()
	period  Time
	stopped bool
	tickFn  func()
	stopFn  func()
}

// eventQueue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990)
// over (at, seq), where seq is push order. It relies on one invariant:
// nothing is ever queued before last, the at of the most recent minimum,
// because simulated time only moves forward. An entry goes into bucket
// bits.Len64(at ^ last): bucket 0 holds entries at exactly last, and bucket
// b > 0 the entries that agree with last above bit b-1 and set that bit, so
// every entry of bucket b precedes every entry of bucket b+1. pop takes the
// minimum from bucket 0; when bucket 0 is empty it refills it by relinking
// the lowest non-empty bucket against that bucket's smallest at, which moves
// every entry to a lower bucket. Push is O(1) and pop costs a few relinks
// amortised.
//
// Each bucket is a FIFO list, and that gives the exact (at, seq) order
// without storing seq. A push carries the largest seq so far and is
// appended; a relink moves a seq-ordered bucket, in order, into buckets that
// are empty at that moment (they all lie below the lowest non-empty one); and
// compaction filters buckets in place. So every bucket stays in seq order,
// and bucket 0, whose entries share one at, pops in (at, seq) order.
//
// The lists link by index through one node slab with a free list, so the
// queue's memory tracks the peak number of queued entries.
type eventQueue struct {
	last    Time
	n       int    // queued entries, cancelled ones included
	mask    uint64 // bit b is set while bucket b is non-empty
	buckets [64]bucket
	nodes   []queueNode
	free    int32 // head of the slab's free list when n < len(nodes)
}

// bucket is one FIFO list: head and tail index the slab, and min is its
// smallest at. All three are meaningful only while the bucket's mask bit is
// set.
type bucket struct {
	head, tail int32
	min        Time
}

// queueNode is one queued event. next links the node's bucket (or the free
// list); a bucket's tail has no valid next.
type queueNode struct {
	at   Time
	ev   *event
	next int32
}

// len reports the number of queued entries, cancelled ones included.
func (q *eventQueue) len() int { return q.n }

func (q *eventQueue) push(at Time, ev *event) {
	var i int32
	if q.n < len(q.nodes) {
		i = q.free
		q.free = q.nodes[i].next
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, queueNode{})
	}
	q.nodes[i] = queueNode{at: at, ev: ev}
	q.n++
	q.link(i, at)
}

// link appends node i, due at at, to its bucket.
func (q *eventQueue) link(i int32, at Time) {
	b := bits.Len64(uint64(at ^ q.last))
	bk := &q.buckets[b]
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		*bk = bucket{head: i, tail: i, min: at}
		return
	}
	q.nodes[bk.tail].next = i
	bk.tail = i
	bk.min = min(bk.min, at)
}

// peek returns the smallest queued at without relinking, so it does not
// commit last: a Run window that stops below the minimum leaves the caller
// free to schedule into [until, minimum). The queue must be non-empty.
func (q *eventQueue) peek() Time {
	return q.buckets[bits.TrailingZeros64(q.mask)].min
}

// pop removes the minimum entry and returns it. The queue must be
// non-empty.
func (q *eventQueue) pop() (Time, *event) {
	if q.mask&1 == 0 {
		q.refill()
	}
	bk := &q.buckets[0]
	i := bk.head
	if i == bk.tail {
		q.mask &^= 1
	} else {
		bk.head = q.nodes[i].next
	}
	ev := q.nodes[i].ev
	q.freeNode(i)
	return q.last, ev
}

// freeNode returns unlinked node i to the slab's free list.
func (q *eventQueue) freeNode(i int32) {
	nd := &q.nodes[i]
	nd.ev = nil // the slab retains no events
	nd.next = q.free
	q.free = i
	q.n--
}

// refill makes the lowest non-empty bucket's smallest at the new last and
// relinks that bucket, in order, against it. Every entry lands in a lower
// bucket, all of them empty beforehand, and the minimum lands in bucket 0.
func (q *eventQueue) refill() {
	b := bits.TrailingZeros64(q.mask)
	bk := q.buckets[b]
	q.mask &^= 1 << b
	q.last = bk.min
	for i := bk.head; ; {
		next := q.nodes[i].next
		q.link(i, q.nodes[i].at)
		if i == bk.tail {
			break
		}
		i = next
	}
}

// compact unlinks every cancelled entry and hands its event to drop. Each
// bucket is filtered in place, so it keeps its seq order.
func (q *eventQueue) compact(drop func(*event)) {
	for m := q.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		bk := &q.buckets[b]
		kept := bucket{head: -1}
		for i := bk.head; ; {
			nd := &q.nodes[i]
			next, end := nd.next, i == bk.tail
			switch {
			case nd.ev.cancelled:
				drop(nd.ev)
				q.freeNode(i)
			case kept.head < 0:
				kept = bucket{head: i, tail: i, min: nd.at}
			default:
				q.nodes[kept.tail].next = i
				kept.tail = i
				kept.min = min(kept.min, nd.at)
			}
			if end {
				break
			}
			i = next
		}
		if kept.head < 0 {
			q.mask &^= 1 << b
		} else {
			*bk = kept
		}
	}
}

// Engine is the event loop. Events run in (at, seq) order, seq being push
// order, so equal-time events run FIFO; the queue is a radix heap (see
// eventQueue), which time moving only forward makes possible. Not safe for
// concurrent use: all simulation activity happens on the goroutine that
// calls Run.
type Engine struct {
	now    Time
	events eventQueue
	rng    *rand.Rand

	// free recycles popped event structs so the schedule/run hot loop
	// allocates nothing at steady state (the pool grows to the peak number
	// of in-flight events and no further).
	free []*event
	// freeTickers recycles stopped tickers the same way (see Every).
	freeTickers []*ticker

	processed uint64
	cancelled int // cancelled events still sitting in the queue

	// Observability (optional): metric handles are nil-safe, so the hot
	// loop below needs no branches when stats are off.
	evCounter *stats.Counter
	taskCount *stats.Counter
	irqCount  *stats.Counter
	taskHist  *stats.Histogram
	tracer    *stats.Tracer
	tracePID  int
}

// NewEngine returns an engine at time zero with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// SetStats attaches a metrics registry: the engine counts processed events
// and cores record task counts and duration distributions into it.
func (e *Engine) SetStats(r *stats.Registry) {
	e.evCounter = r.Counter("sim", "events_processed")
	e.taskCount = r.Counter("sim", "tasks")
	e.irqCount = r.Counter("sim", "irq_tasks")
	e.taskHist = r.Histogram("sim", "task_ps")
}

// SetTracer attaches a trace sink under the given trace process ID; cores
// emit one span per executed task (tid = core ID).
func (e *Engine) SetTracer(t *stats.Tracer, pid int) {
	e.tracer = t
	e.tracePID = pid
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// schedule enqueues fn at absolute time t (>= now), drawing the event from
// the free pool when one is available.
func (e *Engine) schedule(t Time, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.fn = fn
	e.enqueue(ev, t)
	return ev
}

// enqueue pushes a caller-held event (fresh from the pool, or a ticker's
// reusable pinned event that is currently out of the queue) at time t.
// Clamping t to now keeps the queue's invariant: nothing is queued before
// its last minimum.
func (e *Engine) enqueue(ev *event, t Time) {
	if t < e.now {
		t = e.now
	}
	ev.cancelled = false
	ev.queued = true
	e.events.push(t, ev)
}

// release takes an event that just left the queue (popped or compacted away)
// and returns it to the free pool. Pinned events stay owned by their ticker
// — but a stopped ticker's event leaving the queue for the last time
// (cancelled pop, or compaction) is the ticker's terminal point, so the
// ticker itself is recycled there. Everything else drops its closure (so the
// pool retains no callbacks) and becomes reusable.
func (e *Engine) release(ev *event) {
	ev.queued = false
	if ev.pinned {
		if tk := ev.tick; tk != nil && tk.stopped {
			e.recycleTicker(tk)
		}
		return
	}
	ev.fn = nil
	e.free = append(e.free, ev)
}

// recycleTicker returns a stopped ticker to the free list, dropping the
// caller's callback so the list retains nothing.
func (e *Engine) recycleTicker(tk *ticker) {
	tk.fn = nil
	e.freeTickers = append(e.freeTickers, tk)
}

// cancel neutralizes a queued event: it will be discarded on pop without
// executing, advancing time, or counting as processed. Cancelling an event
// that is not in the queue (a ticker callback cancelling itself mid-tick) is
// a no-op — the ticker's stopped flag already prevents re-enqueueing. When
// cancelled entries outnumber live ones the queue is compacted, so a
// start/stop ticker storm cannot grow the queue without bound.
func (e *Engine) cancel(ev *event) {
	if ev == nil || ev.cancelled || !ev.queued {
		return
	}
	ev.cancelled = true
	e.cancelled++
	if e.cancelled >= compactMinCancelled && e.cancelled > e.events.len()/2 {
		e.compact()
	}
}

// compactMinCancelled keeps tiny queues from thrashing through O(n) passes.
const compactMinCancelled = 16

// compact drops the queue's cancelled entries. Every bucket keeps its order,
// so the execution order of live events stays bit-identical.
func (e *Engine) compact() {
	e.events.compact(e.release)
	e.cancelled = 0
}

// At schedules fn to run at absolute simulated time t (>= now).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Every schedules fn to run periodically with the given period until the
// returned stop function is called. Stop cancels the ticker's pending queue
// event, so a stopped ticker no longer shows up in Pending() and never
// inflates Processed(). Stopping from inside fn is allowed.
//
// The ticker owns a single pinned event and two closures bound once at
// construction: each tick re-enqueues the same struct, so steady-state
// ticking allocates nothing. Stopped tickers are recycled through a free
// list once their cancelled event leaves the queue, so a start/stop ticker
// storm is allocation-free too. Repeated calls of the same stop handle are
// no-ops until a later Every reuses the ticker; a stale handle held across
// that reuse must not be called (it would stop the new ticker).
func (e *Engine) Every(period Time, fn func()) (stop func()) {
	var tk *ticker
	if n := len(e.freeTickers); n > 0 {
		tk = e.freeTickers[n-1]
		e.freeTickers[n-1] = nil
		e.freeTickers = e.freeTickers[:n-1]
	} else {
		tk = &ticker{e: e}
		tk.ev.pinned = true
		tk.ev.tick = tk
		tk.tickFn = func() {
			tk.fn()
			if !tk.stopped {
				tk.e.enqueue(&tk.ev, tk.e.now+tk.period)
				return
			}
			// Stopped from inside fn: the event is already out of the
			// queue, so this is the ticker's terminal point.
			tk.e.recycleTicker(tk)
		}
		tk.stopFn = func() {
			if !tk.stopped {
				tk.stopped = true
				tk.e.cancel(&tk.ev)
			}
		}
		tk.ev.fn = tk.tickFn
	}
	tk.fn = fn
	tk.period = period
	tk.stopped = false
	e.enqueue(&tk.ev, e.now+period)
	return tk.stopFn
}

// Run processes events until the queue drains or simulated time reaches
// until (events at exactly until still run). Returns the number of events
// processed.
func (e *Engine) Run(until Time) uint64 {
	n := e.run(until)
	if e.now < until {
		e.now = until
	}
	return n
}

// RunUntilIdle processes events until none remain.
func (e *Engine) RunUntilIdle() uint64 { return e.run(math.MaxInt64) }

// run pops and executes events up to until. It looks at the next event with
// peek, which commits nothing, so a window that stops below the minimum
// leaves last at or below now.
func (e *Engine) run(until Time) uint64 {
	var n uint64
	for e.events.len() > 0 && e.events.peek() <= until {
		at, next := e.events.pop()
		if next.cancelled {
			e.cancelled--
			e.release(next)
			continue
		}
		e.now = at
		fn := next.fn
		e.release(next)
		fn()
		n++
	}
	if e.events.len() == 0 {
		// Cancelled entries popped past now may have moved last beyond
		// it; an empty queue can restart from now.
		e.events.last = e.now
	}
	e.processed += n
	e.evCounter.Add(n)
	return n
}

// Pending reports the number of queued live events (cancelled tickers
// excluded).
func (e *Engine) Pending() int { return e.events.len() - e.cancelled }

// Processed reports the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }
