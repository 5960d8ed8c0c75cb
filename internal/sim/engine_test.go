package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/asplos18/damn/internal/stats"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{1 * Microsecond, 2 * Microsecond, 3 * Microsecond} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	n := e.Run(2 * Microsecond)
	if n != 2 || len(ran) != 2 {
		t.Fatalf("Run processed %d events, want 2", n)
	}
	if e.Now() != 2*Microsecond {
		t.Fatalf("Now = %v after bounded Run", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(1*Microsecond, tick)
		}
	}
	e.After(1*Microsecond, tick)
	e.RunUntilIdle()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("Now = %v, want 5us", e.Now())
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	stop := e.Every(10*Millisecond, func() { count++ })
	e.Run(55 * Millisecond)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	stop()
	e.RunUntilIdle()
	if count != 5 {
		t.Fatalf("ticker kept running after stop: %d", count)
	}
}

func TestEnginePastEventClamped(t *testing.T) {
	e := NewEngine(1)
	e.At(10*Nanosecond, func() {
		// Scheduling in the past must clamp to now, not travel back.
		e.At(0, func() {
			if e.Now() != 10*Nanosecond {
				t.Errorf("past event ran at %v", e.Now())
			}
		})
	})
	e.RunUntilIdle()
}

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestCoreSerialExecution(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0, 0, 2e9) // 2 GHz: 1 cycle = 500 ps
	var starts []Time
	for i := 0; i < 3; i++ {
		c.Submit(false, func(task *Task) {
			starts = append(starts, task.Start())
			task.Charge(2000) // 1 us at 2 GHz
		})
	}
	e.RunUntilIdle()
	want := []Time{0, 1 * Microsecond, 2 * Microsecond}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("task %d started at %v, want %v", i, starts[i], want[i])
		}
	}
	if c.Busy() != 3*Microsecond {
		t.Fatalf("Busy = %v, want 3us", c.Busy())
	}
}

func TestCoreChargeTimeAndStall(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0, 0, 1e9)
	c.Submit(false, func(task *Task) {
		task.Charge(1000) // 1 us at 1 GHz
		if task.Now() != 1*Microsecond {
			t.Errorf("Now after 1000 cycles = %v", task.Now())
		}
		task.ChargeTime(500 * Nanosecond)
		task.StallUntil(3 * Microsecond)
		if task.Now() != 3*Microsecond {
			t.Errorf("Now after stall = %v", task.Now())
		}
		task.StallUntil(1 * Microsecond) // in the past: no-op
		if task.Now() != 3*Microsecond {
			t.Errorf("past StallUntil moved time to %v", task.Now())
		}
	})
	e.RunUntilIdle()
	if c.Busy() != 3*Microsecond {
		t.Fatalf("Busy = %v, want 3us", c.Busy())
	}
}

func TestSpinLockUncontended(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0, 0, 1e9)
	var l SpinLock
	c.Submit(false, func(task *Task) {
		l.Lock(task, 100)
		if task.Now() != 100*Nanosecond {
			t.Errorf("uncontended lock took %v", task.Now())
		}
	})
	e.RunUntilIdle()
	if l.ContendedFor != 0 {
		t.Fatalf("ContendedFor = %v, want 0", l.ContendedFor)
	}
	if l.Acquisitions != 1 {
		t.Fatalf("Acquisitions = %d", l.Acquisitions)
	}
}

func TestSpinLockContention(t *testing.T) {
	// Two cores grab the same lock at the same instant; the second must
	// wait for the first's hold time, charged as spin.
	e := NewEngine(1)
	c0 := NewCore(e, 0, 0, 1e9)
	c1 := NewCore(e, 1, 0, 1e9)
	var l SpinLock
	var end0, end1 Time
	c0.Submit(false, func(task *Task) {
		l.Lock(task, 1000) // hold 1 us
		end0 = task.Now()
	})
	c1.Submit(false, func(task *Task) {
		l.Lock(task, 1000)
		end1 = task.Now()
	})
	e.RunUntilIdle()
	if end0 != 1*Microsecond {
		t.Fatalf("first holder finished at %v", end0)
	}
	if end1 != 2*Microsecond {
		t.Fatalf("second holder finished at %v, want 2us (1us wait + 1us hold)", end1)
	}
	if l.ContendedFor != 1*Microsecond {
		t.Fatalf("ContendedFor = %v, want 1us", l.ContendedFor)
	}
	// The waiting core burned CPU while spinning.
	if c1.Busy() != 2*Microsecond {
		t.Fatalf("waiter Busy = %v, want 2us", c1.Busy())
	}
}

func TestFluidResourceSerializes(t *testing.T) {
	r := NewFluidResource("membw", 1e9) // 1 GB/s
	end1 := r.Reserve(0, 1000)          // 1000 B at 1 GB/s = 1 us
	if end1 != 1*Microsecond {
		t.Fatalf("first reserve ends at %v", end1)
	}
	end2 := r.Reserve(0, 1000)
	if end2 != 2*Microsecond {
		t.Fatalf("second reserve ends at %v, want 2us", end2)
	}
	if r.Backlog(0) != 2*Microsecond {
		t.Fatalf("Backlog = %v", r.Backlog(0))
	}
	if r.Backlog(3*Microsecond) != 0 {
		t.Fatal("backlog should drain")
	}
	if r.Used() != 2000 {
		t.Fatalf("Used = %v", r.Used())
	}
}

func TestFluidResourceIdleGap(t *testing.T) {
	r := NewFluidResource("wire", 1e9)
	r.Reserve(0, 1000)
	// Arriving after the queue drained: starts immediately.
	end := r.Reserve(10*Microsecond, 1000)
	if end != 11*Microsecond {
		t.Fatalf("post-idle reserve ends at %v, want 11us", end)
	}
}

func TestCoreInterruptFlag(t *testing.T) {
	e := NewEngine(1)
	c := NewCore(e, 0, 0, 1e9)
	var sawIRQ, sawStd bool
	c.Submit(true, func(task *Task) { sawIRQ = task.Interrupt })
	c.Submit(false, func(task *Task) { sawStd = !task.Interrupt })
	e.RunUntilIdle()
	if !sawIRQ || !sawStd {
		t.Fatal("interrupt flag not propagated")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(99)
		c := NewCore(e, 0, 0, 2e9)
		var log []Time
		for i := 0; i < 50; i++ {
			delay := Time(e.Rand().Intn(1000)) * Nanosecond
			e.After(delay, func() {
				c.Submit(false, func(task *Task) {
					task.Charge(float64(e.Rand().Intn(500)))
					log = append(log, task.Now())
				})
			})
		}
		e.RunUntilIdle()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEveryStopRemovesPendingEvent(t *testing.T) {
	e := NewEngine(1)
	count := 0
	stop := e.Every(10*Millisecond, func() { count++ })
	e.Run(25 * Millisecond) // ticks at 10ms and 20ms; next is queued for 30ms
	if count != 2 {
		t.Fatalf("ticks = %d, want 2", count)
	}
	before := e.Processed()
	stop()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after stop, want 0 (stale ticker event left in heap)", e.Pending())
	}
	if n := e.RunUntilIdle(); n != 0 {
		t.Fatalf("RunUntilIdle executed %d events after stop, want 0", n)
	}
	if e.Processed() != before {
		t.Fatalf("Processed advanced from %d to %d on a stopped ticker", before, e.Processed())
	}
	if count != 2 {
		t.Fatalf("stopped ticker fired: count = %d", count)
	}
	if e.Now() != 25*Millisecond {
		t.Fatalf("cancelled event advanced time to %v", e.Now())
	}
	stop() // idempotent
}

func TestEveryStopFromInsideCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var stop func()
	stop = e.Every(10*Millisecond, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	e.RunUntilIdle()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3 (stop from inside callback must halt re-arm)", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestEveryStopDoesNotCancelOtherEvents(t *testing.T) {
	e := NewEngine(1)
	stop := e.Every(10*Millisecond, func() {})
	ran := false
	e.At(30*Millisecond, func() { ran = true })
	stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if !ran {
		t.Fatal("unrelated event did not run")
	}
}

func TestTickerStormHeapBounded(t *testing.T) {
	// A start/stop ticker storm must not grow the heap without bound:
	// cancelled entries are compacted once they outnumber live events.
	e := NewEngine(1)
	for i := 0; i < 10000; i++ {
		stop := e.Every(10*Millisecond, func() {})
		stop()
		if e.events.len() > 2*compactMinCancelled+2 {
			t.Fatalf("queue grew to %d entries after %d start/stop cycles", e.events.len(), i+1)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after storm, want 0", e.Pending())
	}
	if n := e.RunUntilIdle(); n != 0 {
		t.Fatalf("RunUntilIdle executed %d events after storm, want 0", n)
	}
}

func TestCompactPreservesOrder(t *testing.T) {
	// Force a compaction between scheduling and running, and check live
	// events still execute in exact (at, seq) order.
	e := NewEngine(1)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		// Interleave live events with immediately-stopped tickers (two per
		// live event) so the cancelled count crosses the more-than-half
		// compaction threshold.
		e.At(Time(50-i)*Microsecond, func() { got = append(got, 50-i) })
		for j := 0; j < 2; j++ {
			stop := e.Every(Millisecond, func() {})
			stop()
		}
	}
	if e.cancelled != 0 && e.events.len() >= 150 {
		t.Fatalf("no compaction happened: %d entries, %d cancelled", e.events.len(), e.cancelled)
	}
	e.RunUntilIdle()
	if len(got) != 50 {
		t.Fatalf("ran %d events, want 50", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("order broken after compaction: %v", got)
		}
	}
}

func TestEventPoolReuseKeepsDeterminism(t *testing.T) {
	// Heavy schedule/run churn recycles event structs through the pool;
	// the observable schedule must stay identical to a fresh engine's.
	run := func() []Time {
		e := NewEngine(7)
		var log []Time
		var burst func()
		rounds := 0
		burst = func() {
			log = append(log, e.Now())
			for i := 0; i < 8; i++ {
				d := Time(e.Rand().Intn(900)+1) * Nanosecond
				e.After(d, func() { log = append(log, e.Now()) })
			}
			if rounds++; rounds < 40 {
				e.After(Microsecond, burst)
			}
		}
		e.After(Microsecond, burst)
		stop := e.Every(3*Microsecond, func() { log = append(log, -e.Now()) })
		e.Run(60 * Microsecond)
		stop()
		e.RunUntilIdle()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pooled runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// popKey is the order an entry must run in: its time, then seq, its push
// order among every entry the engine queued.
type popKey struct {
	at  Time
	seq uint64
}

// popTicker is one ticker a popScript started, with the key of its pending
// tick.
type popTicker struct {
	next    popKey
	stop    func()
	stopped bool
}

// popScript drives one engine through a test script and records every entry
// it queues, so finish can check that execution order is exactly a sort by
// (at, seq): every entry ever queued runs once unless its ticker was
// stopped, and no cancelled entry runs.
type popScript struct {
	t           *testing.T
	name        string
	e           *Engine
	rng         *rand.Rand
	pushes      uint64          // entries queued so far
	queued      map[popKey]bool // live entries the script expects to run
	cancelled   map[popKey]bool // entries of stopped tickers
	ran         []popKey
	active      []*popTicker
	compactions int
	maxDepth    int    // most entries queued at once, cancelled ones included
	budget      int    // entries the script may still queue
	act         func() // what every fired entry does next
}

func newPopScript(t *testing.T, name string, seed int64, budget int) *popScript {
	return &popScript{
		t: t, name: fmt.Sprintf("%s seed %d", name, seed),
		e: NewEngine(seed), rng: rand.New(rand.NewSource(seed)),
		queued: map[popKey]bool{}, cancelled: map[popKey]bool{},
		budget: budget, act: func() {},
	}
}

// push records the entry the engine is about to queue at t.
func (s *popScript) push(t Time) popKey {
	s.budget--
	s.pushes++
	k := popKey{t, s.pushes}
	s.queued[k] = true
	s.maxDepth = max(s.maxDepth, s.e.events.len()+1)
	return k
}

func (s *popScript) fire(k popKey) {
	if s.e.Now() != k.at {
		s.t.Fatalf("%s: entry %v ran at %v", s.name, k, s.e.Now())
	}
	if !s.queued[k] {
		s.t.Fatalf("%s: entry %v ran but is not queued (cancelled: %v)", s.name, k, s.cancelled[k])
	}
	delete(s.queued, k)
	s.ran = append(s.ran, k)
}

// at queues one entry at absolute time t (at or after now).
func (s *popScript) at(t Time) {
	k := s.push(t)
	s.e.At(t, func() { s.fire(k); s.act() })
}

// start starts a ticker with the given period.
func (s *popScript) start(period Time) {
	tk := &popTicker{}
	tk.stop = s.e.Every(period, func() {
		s.fire(tk.next)
		s.act()
		if !tk.stopped {
			// The ticker re-enqueues right after this returns.
			tk.next = s.push(s.e.Now() + period)
		}
	})
	tk.next = s.push(s.e.Now() + period)
	s.active = append(s.active, tk)
}

// stop stops the i-th active ticker.
func (s *popScript) stop(i int) {
	tk := s.active[i]
	s.active = append(s.active[:i], s.active[i+1:]...)
	before := s.e.events.len()
	tk.stopped = true
	if s.queued[tk.next] {
		delete(s.queued, tk.next)
		s.cancelled[tk.next] = true
	}
	tk.stop()
	if s.e.events.len() < before {
		s.compactions++
	}
}

// finish stops the remaining tickers, drains the engine and checks the
// execution order.
func (s *popScript) finish(minRan int) {
	for len(s.active) > 0 {
		s.stop(0)
	}
	s.e.RunUntilIdle()
	if len(s.queued) != 0 {
		s.t.Fatalf("%s: %d queued entries never ran", s.name, len(s.queued))
	}
	for i := 1; i < len(s.ran); i++ {
		a, b := s.ran[i-1], s.ran[i]
		if a.at > b.at || (a.at == b.at && a.seq >= b.seq) {
			s.t.Fatalf("%s: %v ran before %v, out of (at, seq) order", s.name, a, b)
		}
	}
	if len(s.ran) < minRan {
		s.t.Fatalf("%s: only %d entries ran, want at least %d", s.name, len(s.ran), minRan)
	}
	s.t.Logf("%s: %d entries ran, %d cancelled, %d compactions, depth up to %d",
		s.name, len(s.ran), len(s.cancelled), s.compactions, s.maxDepth)
}

// TestRandomizedPopOrder drives the engine with random scripts and checks
// that execution order is exactly a sort by (at, seq) under each:
//
//   - mixed: bursts of events at equal times, tickers started and stopped
//     mid-run (from inside callbacks and between Run windows), and stop
//     storms large enough to trigger compaction;
//   - window below the minimum: Run windows that end below the earliest
//     queued entry, each followed by schedules into [until, minimum), which
//     only work if a stopping Run leaves the queue's last minimum alone;
//   - deep: over a thousand entries spread across milliseconds next to
//     10 µs re-arms, 10 µs tickers and same-time bursts, near and far;
//   - At after RunUntilIdle: a drain whose last popped entries are
//     cancelled ticks beyond now, followed by schedules before, at and
//     after those ticks.
func TestRandomizedPopOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		popMixed(t, seed)
		popWindowBelowMin(t, seed)
		popDeep(t, seed)
		popAtAfterIdle(t, seed)
	}
}

func popMixed(t *testing.T, seed int64) {
	s := newPopScript(t, "mixed", seed, 5000)
	// Few distinct offsets, so many entries share an at.
	offset := func() Time { return Time(s.rng.Intn(4)) * Microsecond }
	s.act = func() {
		if s.budget <= 0 {
			return
		}
		switch r := s.rng.Intn(40); {
		case r < 20:
			for n := s.rng.Intn(3); n > 0; n-- {
				s.at(s.e.Now() + offset())
			}
		case r < 28:
			s.start(Time(1+s.rng.Intn(3)) * Microsecond)
		case r < 36:
			if len(s.active) > 0 {
				s.stop(s.rng.Intn(len(s.active)))
			}
		case r < 37:
			// Stop storm: enough cancelled entries to outnumber live ones
			// and force a compaction.
			for n := 0; n < 2*compactMinCancelled; n++ {
				s.start(Time(1+s.rng.Intn(3)) * Microsecond)
			}
			for len(s.active) > 1 {
				s.stop(s.rng.Intn(len(s.active)))
			}
		}
	}
	for i := 0; i < 32; i++ {
		s.at(s.e.Now() + offset())
	}
	for s.budget > 0 {
		s.act()
		s.e.Run(s.e.Now() + offset())
	}
	if s.compactions == 0 {
		t.Fatalf("%s: no compaction happened; the script does not exercise it", s.name)
	}
	s.finish(1000)
}

func popWindowBelowMin(t *testing.T, seed int64) {
	s := newPopScript(t, "window below min", seed, 4000)
	below := 0
	for s.budget > 0 {
		// A minimum ahead of now, entries at and beyond it, and one far
		// entry so the relinks span many buckets.
		gap := Time(1+s.rng.Intn(40_000)) * Nanosecond
		first := s.e.Now() + gap
		for n := 1 + s.rng.Intn(3); n > 0; n-- {
			s.at(first)
		}
		s.at(first + Time(s.rng.Intn(20))*Microsecond)
		s.at(first + Time(1+s.rng.Intn(5))*Millisecond)
		// Stop below the minimum, then schedule into [until, first).
		until := s.e.Now() + Time(s.rng.Int63n(int64(gap)))
		if s.e.Run(until); s.e.events.len() > 0 && s.e.events.peek() == first {
			below++
		}
		s.at(until)
		s.at(first - 1)
		for n := s.rng.Intn(4); n > 0; n-- {
			s.at(until + Time(s.rng.Int63n(int64(first-until))))
		}
		// Run past the minimum sometimes, and drain now and then.
		switch s.rng.Intn(4) {
		case 0:
			s.e.Run(first + Time(s.rng.Intn(30))*Microsecond)
		case 1:
			s.e.RunUntilIdle()
		}
	}
	if below < 100 {
		t.Fatalf("%s: only %d windows stopped below the minimum", s.name, below)
	}
	s.finish(1000)
}

func popDeep(t *testing.T, seed int64) {
	s := newPopScript(t, "deep", seed, 12000)
	far := func() Time {
		return s.e.Now() + 100*Microsecond + Time(s.rng.Int63n(int64(5*Millisecond)))
	}
	burst := func(at Time) {
		for n := 2 + s.rng.Intn(4); n > 0; n-- {
			s.at(at)
		}
	}
	s.act = func() {
		if s.budget <= 0 {
			return
		}
		switch r := s.rng.Intn(100); {
		case r < 45:
			s.at(s.e.Now() + 10*Microsecond) // the generator's re-arm
		case r < 70:
			s.at(far())
		case r < 74:
			burst(s.e.Now())
		case r < 78:
			burst(s.e.Now() + 10*Microsecond)
		case r < 82:
			burst(far())
		case r < 85:
			s.start(10 * Microsecond)
		case r < 88:
			if len(s.active) > 0 {
				s.stop(s.rng.Intn(len(s.active)))
			}
		}
	}
	for i := 0; i < 1200; i++ {
		s.at(far())
	}
	for i := 0; i < 20; i++ {
		s.at(s.e.Now() + Time(s.rng.Intn(10))*Microsecond)
	}
	for s.budget > 0 {
		s.e.Run(s.e.Now() + Time(s.rng.Intn(30_000))*Nanosecond)
	}
	if s.maxDepth < 1000 {
		t.Fatalf("%s: depth peaked at %d entries, want at least 1000", s.name, s.maxDepth)
	}
	s.finish(5000)
}

func popAtAfterIdle(t *testing.T, seed int64) {
	s := newPopScript(t, "At after RunUntilIdle", seed, 3000)
	stale := 0
	for s.budget > 0 {
		// Live entries close to now and tickers whose next tick lies
		// beyond all of them; stopping the tickers leaves cancelled
		// entries that the drain pops after the last live one.
		for n := 1 + s.rng.Intn(4); n > 0; n-- {
			s.at(s.e.Now() + Time(s.rng.Intn(20))*Microsecond)
		}
		var ticks []Time
		for n := 1 + s.rng.Intn(3); n > 0; n-- {
			s.start(Time(30+s.rng.Intn(100)) * Microsecond)
			ticks = append(ticks, s.active[len(s.active)-1].next.at)
		}
		for len(s.active) > 0 {
			s.stop(s.rng.Intn(len(s.active)))
		}
		s.e.RunUntilIdle()
		for _, tick := range ticks {
			if tick <= s.e.Now() {
				continue // an earlier round's entry ran past it
			}
			stale++
			// Before, at and after the cancelled tick.
			s.at(s.e.Now() + Time(s.rng.Int63n(int64(tick-s.e.Now()))))
			s.at(tick)
			s.at(tick + Time(s.rng.Intn(10))*Microsecond)
		}
		s.at(s.e.Now())
		if s.rng.Intn(2) == 0 {
			s.e.RunUntilIdle()
		}
	}
	if stale < 100 {
		t.Fatalf("%s: only %d drains ended below a cancelled tick", s.name, stale)
	}
	s.finish(1000)
}

// mallocs runs op n times and returns the number of heap allocations the
// whole loop made, with the GC off: unlike testing.AllocsPerRun, which
// truncates to whole allocations per op, it counts every malloc.
func mallocs(n int, op func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestScheduleRunSteadyStateAllocs(t *testing.T) {
	// After warmup the schedule→run→recycle cycle must not allocate: the
	// event comes from the pool and returns to it.
	e := NewEngine(1)
	fn := func() {}
	at := Time(0)
	step := func() {
		at += Nanosecond
		e.At(at, fn)
		e.Run(at)
	}
	step() // warm the pool
	if n := mallocs(1000, step); n != 0 {
		t.Fatalf("schedule/run steady state made %d mallocs in 1000 steps, want 0", n)
	}
}

func TestEverySteadyStateAllocs(t *testing.T) {
	// A ticker reuses one pinned event and one closure for its lifetime:
	// steady-state ticking is allocation-free.
	e := NewEngine(1)
	ticks := 0
	stop := e.Every(Microsecond, func() { ticks++ })
	defer stop()
	at := Time(0)
	tick := func() {
		at += Microsecond
		e.Run(at)
	}
	tick() // warm up
	if n := mallocs(1000, tick); n != 0 {
		t.Fatalf("ticker steady state made %d mallocs in 1000 ticks, want 0", n)
	}
	if ticks < 1000 {
		t.Fatalf("ticker only fired %d times", ticks)
	}
}

func TestDeepQueueSteadyStateAllocs(t *testing.T) {
	// The bidirectional netperf mix's queue shape: 1,200 entries
	// milliseconds ahead, each re-arming itself 1-5 ms out when it fires,
	// next to 16 chains that re-arm every 10 µs. The depth stays constant,
	// so once the node slab and the event pool reach it, relinking through
	// the buckets must not allocate.
	e := NewEngine(1)
	k := 0
	var far, rearm func()
	far = func() {
		k++
		e.After(Millisecond+Time(k*7919%4000)*Microsecond, far)
	}
	rearm = func() { e.After(10*Microsecond, rearm) }
	for i := 0; i < 1200; i++ {
		e.After(Time(100+i*4)*Microsecond, far)
	}
	for i := 0; i < 16; i++ {
		e.After(Time(i)*Microsecond/2, rearm)
	}
	window := func() { e.Run(e.Now() + 10*Microsecond) }
	for i := 0; i < 1000; i++ {
		window() // 10 ms: every far entry has fired and re-armed
	}
	processed := e.Processed()
	if n := mallocs(2000, window); n != 0 {
		t.Fatalf("deep queue made %d mallocs in 2000 windows, want 0", n)
	}
	if e.Processed()-processed < 2000*16 {
		t.Fatalf("%d events ran during measurement; the re-arm chains did not", e.Processed()-processed)
	}
	if d := e.Pending(); d != 1216 {
		t.Fatalf("Pending = %d, want a constant 1216", d)
	}
}

func TestEngineStatsCountsEvents(t *testing.T) {
	e := NewEngine(1)
	r := stats.NewRegistry()
	e.SetStats(r)
	for i := 0; i < 4; i++ {
		e.After(Time(i)*Microsecond, func() {})
	}
	e.RunUntilIdle()
	if got := r.Snapshot().Counter("sim/events_processed"); got != 4 {
		t.Fatalf("sim/events_processed = %d, want 4", got)
	}
}

func TestCoreTaskStatsAndTrace(t *testing.T) {
	e := NewEngine(1)
	r := stats.NewRegistry()
	tr := stats.NewTracer()
	e.SetStats(r)
	e.SetTracer(tr, tr.Process("test"))
	c := NewCore(e, 0, 0, 2e9)
	c.Submit(false, func(t *Task) { t.Charge(2000) })
	c.Submit(true, func(t *Task) { t.Charge(1000) })
	e.RunUntilIdle()
	if got := r.Counter("sim", "tasks").Value(); got != 1 {
		t.Fatalf("sim/tasks = %d, want 1", got)
	}
	if got := r.Counter("sim", "irq_tasks").Value(); got != 1 {
		t.Fatalf("sim/irq_tasks = %d, want 1", got)
	}
	if got := r.Histogram("sim", "task_ps").Count(); got != 2 {
		t.Fatalf("sim/task_ps count = %d, want 2", got)
	}
	// Metadata event + two spans.
	if tr.Len() != 3 {
		t.Fatalf("trace has %d events, want 3", tr.Len())
	}
}
