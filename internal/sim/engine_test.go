package sim

import (
	"math/rand"
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
		if len(e.events) > 2*compactMinCancelled+2 {
			t.Fatalf("heap grew to %d entries after %d start/stop cycles", len(e.events), i+1)
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
	if e.cancelled != 0 && len(e.events) >= 150 {
		t.Fatalf("no compaction happened: %d entries, %d cancelled", len(e.events), e.cancelled)
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

// TestRandomizedPopOrder drives the engine with a random script — bursts of
// events at equal times, tickers started and stopped mid-run (from inside
// callbacks and between Run windows), and stop storms large enough to
// trigger compaction — and checks that execution order is exactly a sort by
// (at, seq): every entry ever queued runs once unless its ticker was
// stopped, and no cancelled entry runs.
func TestRandomizedPopOrder(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var ran []key
		queued := map[key]bool{}    // live entries the test expects to run
		cancelled := map[key]bool{} // entries of stopped tickers
		type tick struct {
			next    key
			stop    func()
			stopped bool
		}
		var active []*tick
		compactions := 0
		budget := 5000 // entries the script may still queue

		fire := func(k key) {
			if e.Now() != k.at {
				t.Fatalf("seed %d: entry %v ran at %v", seed, k, e.Now())
			}
			if !queued[k] {
				t.Fatalf("seed %d: entry %v ran but is not queued (cancelled: %v)", seed, k, cancelled[k])
			}
			delete(queued, k)
			ran = append(ran, k)
		}
		// Few distinct offsets, so many entries share an at.
		offset := func() Time { return Time(rng.Intn(4)) * Microsecond }

		var act func()
		schedule := func() {
			budget--
			at := e.Now() + offset()
			var k key
			e.At(at, func() { fire(k); act() })
			k = key{at, e.seq}
			queued[k] = true
		}
		start := func() {
			budget--
			tk := &tick{}
			period := Time(1+rng.Intn(3)) * Microsecond
			tk.stop = e.Every(period, func() {
				fire(tk.next)
				act()
				if !tk.stopped {
					// The ticker re-enqueues right after this returns.
					tk.next = key{e.Now() + period, e.seq + 1}
					queued[tk.next] = true
				}
			})
			tk.next = key{e.Now() + period, e.seq}
			queued[tk.next] = true
			active = append(active, tk)
		}
		stop := func(i int) {
			tk := active[i]
			active = append(active[:i], active[i+1:]...)
			before := len(e.events)
			tk.stopped = true
			if queued[tk.next] {
				delete(queued, tk.next)
				cancelled[tk.next] = true
			}
			tk.stop()
			if len(e.events) < before {
				compactions++
			}
		}
		act = func() {
			if budget <= 0 {
				return
			}
			switch r := rng.Intn(40); {
			case r < 20:
				for n := rng.Intn(3); n > 0; n-- {
					schedule()
				}
			case r < 28:
				start()
			case r < 36:
				if len(active) > 0 {
					stop(rng.Intn(len(active)))
				}
			case r < 37:
				// Stop storm: enough cancelled entries to outnumber
				// live ones and force a compaction.
				for n := 0; n < 2*compactMinCancelled; n++ {
					start()
				}
				for len(active) > 1 {
					stop(rng.Intn(len(active)))
				}
			}
		}

		for i := 0; i < 32; i++ {
			schedule()
		}
		for budget > 0 {
			act()
			e.Run(e.Now() + offset())
		}
		for len(active) > 0 {
			stop(0)
		}
		e.RunUntilIdle()

		if len(queued) != 0 {
			t.Fatalf("seed %d: %d queued entries never ran", seed, len(queued))
		}
		if compactions == 0 {
			t.Fatalf("seed %d: no compaction happened; the script does not exercise it", seed)
		}
		for i := 1; i < len(ran); i++ {
			a, b := ran[i-1], ran[i]
			if a.at > b.at || (a.at == b.at && a.seq >= b.seq) {
				t.Fatalf("seed %d: %v ran before %v, out of (at, seq) order", seed, a, b)
			}
		}
		if len(ran) < 1000 {
			t.Fatalf("seed %d: only %d entries ran", seed, len(ran))
		}
		t.Logf("seed %d: %d entries ran, %d cancelled, %d compactions", seed, len(ran), len(cancelled), compactions)
	}
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
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("schedule/run steady state allocates %.1f allocs/op, want 0", avg)
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
	if avg := testing.AllocsPerRun(200, tick); avg != 0 {
		t.Fatalf("ticker steady state allocates %.1f allocs/tick, want 0", avg)
	}
	if ticks < 200 {
		t.Fatalf("ticker only fired %d times", ticks)
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
	if got := r.Counter("sim", "events_processed").Value(); got != 4 {
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
