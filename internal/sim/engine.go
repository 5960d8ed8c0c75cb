// Package sim is the discrete-event simulation engine underneath the
// evaluation harness. It provides a deterministic event loop over simulated
// time, simulated CPU cores that charge cycle costs, simulated spinlocks
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

// event is a scheduled callback. Its (at, seq) key lives in the heap entry
// that queues it (see eventHeap), not here.
type event struct {
	fn func()
	// cancelled events stay in the heap (removal from the middle of a
	// heap is O(n)) but are skipped on pop: they neither execute,
	// nor advance time, nor count as processed. When more than half the
	// heap is cancelled the engine compacts it (see compact).
	cancelled bool
	// queued tracks heap membership so cancel of a currently-executing
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

// heapEntry is one queued event with its ordering key held inline: sifting
// compares entries without dereferencing the event. seq is the tie-break
// that makes equal-time events run FIFO, deterministically, so (at, seq) is
// a strict total order over queued entries.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the eventHeap's fan-out. Four children per node halve a
// binary heap's depth, so a pop sifts through half the levels at up to
// three extra comparisons per level. Arities 2, 4 and 8 measured within
// host noise of each other on the benchmark mixes.
const heapArity = 4

// eventHeap is a heapArity-ary min-heap on (at, seq), typed so that push
// and pop make no interface calls. Because (at, seq) is a total order, pop
// order does not depend on the heap's shape: any correct heap over the same
// entries yields the same sequence.
type eventHeap []heapEntry

func (h *eventHeap) push(ent heapEntry) {
	*h = append(*h, ent)
	h.up(len(*h) - 1)
}

// pop removes the minimum entry and returns its event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0].ev
	last := old[n]
	old[n] = heapEntry{} // don't retain the popped event in the backing array
	*h = old[:n]
	if n > 0 {
		h.down(0, last)
	}
	return ev
}

func (h eventHeap) up(i int) {
	ent := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !ent.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// down places ent at slot i, moving it toward the leaves until no child
// precedes it.
func (h eventHeap) down(i int, ent heapEntry) {
	n := len(h)
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+heapArity, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&ent) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ent
}

// init establishes the heap order over arbitrary contents.
func (h eventHeap) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.down(i, h[i])
	}
}

// Engine is the event loop. Not safe for concurrent use: all simulation
// activity happens on the goroutine that calls Run.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand

	// free recycles popped event structs so the schedule/run hot loop
	// allocates nothing at steady state (the pool grows to the peak number
	// of in-flight events and no further).
	free []*event
	// freeTickers recycles stopped tickers the same way (see Every).
	freeTickers []*ticker

	processed uint64
	cancelled int // cancelled events still sitting in the heap

	// Observability (optional): metric handles are nil-safe, so the hot
	// loop below needs no branches when stats are off.
	stats     *stats.Registry
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
	e.stats = r
	e.evCounter = r.Counter("sim", "events_processed")
	e.taskCount = r.Counter("sim", "tasks")
	e.irqCount = r.Counter("sim", "irq_tasks")
	e.taskHist = r.Histogram("sim", "task_ps")
}

// Stats returns the attached registry (nil when none).
func (e *Engine) Stats() *stats.Registry { return e.stats }

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
// reusable pinned event that is currently out of the heap) at time t.
func (e *Engine) enqueue(ev *event, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.cancelled = false
	ev.queued = true
	e.events.push(heapEntry{at: t, seq: e.seq, ev: ev})
}

// release returns a popped event to the free pool. Pinned events stay owned
// by their ticker — but a stopped ticker's event leaving the heap for the
// last time (cancelled pop, or compaction) is the ticker's terminal point,
// so the ticker itself is recycled there. Everything else drops its closure
// (so the pool retains no callbacks) and becomes reusable.
func (e *Engine) release(ev *event) {
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
// that is not in the heap (a ticker callback cancelling itself mid-tick) is
// a no-op — the ticker's stopped flag already prevents re-enqueueing. When
// cancelled entries outnumber live ones the heap is compacted, so a
// start/stop ticker storm cannot grow the heap without bound.
func (e *Engine) cancel(ev *event) {
	if ev == nil || ev.cancelled || !ev.queued {
		return
	}
	ev.cancelled = true
	e.cancelled++
	if e.cancelled >= compactMinCancelled && e.cancelled > len(e.events)/2 {
		e.compact()
	}
}

// compactMinCancelled keeps tiny heaps from thrashing through O(n) rebuilds.
const compactMinCancelled = 16

// compact rebuilds the heap without its cancelled entries. Pop order is
// fully determined by (at, seq), so dropping dead entries and re-heapifying
// leaves the execution order of live events bit-identical.
func (e *Engine) compact() {
	live := e.events[:0]
	for _, ent := range e.events {
		if ent.ev.cancelled {
			ent.ev.queued = false
			e.release(ent.ev)
			continue
		}
		live = append(live, ent)
	}
	clear(e.events[len(live):])
	e.events = live
	e.cancelled = 0
	e.events.init()
}

// At schedules fn to run at absolute simulated time t (>= now).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Every schedules fn to run periodically with the given period until the
// returned stop function is called. Stop cancels the ticker's pending heap
// event, so a stopped ticker no longer shows up in Pending() and never
// inflates Processed(). Stopping from inside fn is allowed.
//
// The ticker owns a single pinned event and two closures bound once at
// construction: each tick re-enqueues the same struct, so steady-state
// ticking allocates nothing. Stopped tickers are recycled through a free
// list once their cancelled event leaves the heap, so a start/stop ticker
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
			// heap, so this is the ticker's terminal point.
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
	var n uint64
	for len(e.events) > 0 {
		at := e.events[0].at
		next := e.events[0].ev
		if next.cancelled {
			e.events.pop()
			next.queued = false
			e.cancelled--
			e.release(next)
			continue
		}
		if at > until {
			break
		}
		e.events.pop()
		next.queued = false
		e.now = at
		fn := next.fn
		e.release(next)
		fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	e.processed += n
	e.evCounter.Add(n)
	return n
}

// RunUntilIdle processes events until none remain.
func (e *Engine) RunUntilIdle() uint64 {
	var n uint64
	for len(e.events) > 0 {
		at := e.events[0].at
		next := e.events.pop()
		next.queued = false
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
	e.processed += n
	e.evCounter.Add(n)
	return n
}

// Pending reports the number of queued live events (cancelled tickers
// excluded).
func (e *Engine) Pending() int { return len(e.events) - e.cancelled }

// Processed reports the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }
