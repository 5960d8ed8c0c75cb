// Benchmarks, two tiers:
//
//   - Micro: real wall-clock cost of the reproduction's hot data
//     structures (DAMN alloc/free fast path, the DMA-map interposition,
//     the legacy schemes' map/unmap, IOTLB lookups, skb accessors), the
//     event loop, and the per-packet paths alloc_test.go gates at 0
//     allocs/op. A gated path is timed on its gate's own rig.
//   - Macro: one sub-benchmark per experiments.Catalog() entry, each
//     iteration rerunning that figure in quick mode; the 4-machine
//     topology ring, serial against parallel; and the whole quick suite,
//     serial against parallel. These take seconds per iteration by design.
//
// Run everything with:
//
//	go test -run '^$' -bench . -benchmem
//
// or one figure with -bench 'Catalog/fig4$'.
package damn_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	damn "github.com/asplos18/damn"
	damncore "github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/experiments"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// damnCtx is a zero allocation context (core 0, standard context).
var damnCtx = damncore.Ctx{}

func benchMachine(b testing.TB, scheme damn.Scheme) *damn.Machine {
	b.Helper()
	m, err := damn.NewMachine(damn.Config{Scheme: scheme, MemBytes: 512 << 20, Cores: 4})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchOp times op, the warmed-up steady-state operation of an alloc_test.go
// rig, and reports its allocations.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// ---- Micro benchmarks ----

// BenchmarkDamnAllocFree measures the damn_alloc/damn_free fast path
// (per-core bump pointer + chunk refcount, §5.4).
func BenchmarkDamnAllocFree(b *testing.B) {
	benchOp(b, damnAllocFreeRig(b))
}

// BenchmarkDamnAllocFreeFullChunk exercises the chunk-recycling path: every
// allocation consumes a whole 64 KiB chunk, so each round trips through the
// magazine layer.
func BenchmarkDamnAllocFreeFullChunk(b *testing.B) {
	m := benchMachine(b, damn.SchemeDAMN)
	d := m.DamnAllocator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, err := d.Alloc(damnCtx, testbed.NICDeviceID, iommu.PermWrite, d.MaxAlloc())
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Free(damnCtx, pa); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSlabAllocFree is the kmalloc baseline the DAMN paths are
// compared against.
func BenchmarkKernelSlabAllocFree(b *testing.B) {
	m := benchMachine(b, damn.SchemeOff)
	slab := m.Testbed().Slab
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, err := slab.Alloc(1500, 0)
		if err != nil {
			b.Fatal(err)
		}
		slab.Free(pa)
	}
}

// BenchmarkDmaMapUnmap measures a full dma_map+dma_unmap round trip under
// each scheme — for DAMN this is the §5.3 interposition fast path (page-
// struct lookup + MSB check), for the others the real mapping machinery.
func BenchmarkDmaMapUnmap(b *testing.B) {
	for _, scheme := range dmaSchemes {
		b.Run(string(scheme), func(b *testing.B) {
			benchOp(b, dmaMapUnmapRig(b, scheme))
		})
	}
}

// BenchmarkIOMMUTranslate measures a warm IOTLB translation.
func BenchmarkIOMMUTranslate(b *testing.B) {
	m := benchMachine(b, damn.SchemeDAMN)
	buf, err := m.AllocPacketBuffer(damn.RightsWrite, 4096)
	if err != nil {
		b.Fatal(err)
	}
	u := m.Testbed().IOMMU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Translate(testbed.NICDeviceID, buf.DMAAddr, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceDMAWrite measures an end-to-end translated device write.
func BenchmarkDeviceDMAWrite(b *testing.B) {
	m := benchMachine(b, damn.SchemeDAMN)
	buf, err := m.AllocPacketBuffer(damn.RightsWrite, 4096)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1500)
	u := m.Testbed().IOMMU
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.DMAWrite(testbed.NICDeviceID, buf.DMAAddr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkbAccess measures the §5.2 accessor with the TOCTTOU copy.
func BenchmarkSkbAccess(b *testing.B) {
	m := benchMachine(b, damn.SchemeDAMN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		skb, err := m.NewSKB(4096, true)
		if err != nil {
			b.Fatal(err)
		}
		skb.SetReceived(4096, 0)
		b.StartTimer()
		if _, err := skb.Access(nil, 128); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		skb.Free(nil)
		b.StartTimer()
	}
}

// BenchmarkRXSkbPath measures one 9000-byte segment through the full
// receive path: wire arrival, DMA + translation, interrupt dispatch, driver
// unmap + repost, skb adoption, accessor copy, netfilter, user copy, free.
func BenchmarkRXSkbPath(b *testing.B) {
	inject, _ := rxPathRig(b)
	benchOp(b, inject)
}

// BenchmarkARQRetransmit measures one ARQ loss-recovery cycle: a lost
// segment, dup-ACK fast retransmit, reorder flush and the cumulative ACK
// through the TX DMA path.
func BenchmarkARQRetransmit(b *testing.B) {
	cycle, _, _ := retransmitRig(b)
	benchOp(b, cycle)
}

// BenchmarkCapCheck measures the multi-tenant capability checks the driver
// runs before a map or unmap: a valid handle, a forged one and an unowned
// ring.
func BenchmarkCapCheck(b *testing.B) {
	cycle, _ := capCheckRig(b)
	benchOp(b, cycle)
}

// BenchmarkBypassPollTick measures one idle busy-poll tick of the
// kernel-bypass driver.
func BenchmarkBypassPollTick(b *testing.B) {
	tick, _ := bypassPollRig(b)
	benchOp(b, tick)
}

// BenchmarkVirtqueuePostHarvest measures one segment through the protected
// bypass path: avail post, DMA, used-element publish through the per-app
// domain, burst harvest and repost behind one doorbell. Each op also runs
// four poll intervals of the whole machine.
func BenchmarkVirtqueuePostHarvest(b *testing.B) {
	inject, _ := bypassRXRig(b)
	benchOp(b, inject)
}

// ---- Engine micro benchmarks ----
//
// The event loop underneath every simulation. The free-list pool and the
// reusable ticker event make all three steady-state paths allocation-free;
// internal/sim's TestScheduleRunSteadyStateAllocs and
// TestEverySteadyStateAllocs and alloc_test.go's TestCancelStormZeroAlloc
// gate that. BenchmarkEngineHold times the queue at the depths the
// perfbench mixes run, which the one-event-at-a-time benchmarks cannot show.

// BenchmarkEngineScheduleRun measures the schedule+dispatch round trip: one
// event scheduled and executed per iteration. Steady state must not
// allocate — the event struct comes from the engine's free pool.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(sim.Microsecond, fn)
		e.RunUntilIdle()
	}
}

// BenchmarkEngineTicker measures one periodic tick. The ticker owns a single
// pinned event and one closure for its whole lifetime, so ticking must not
// allocate per period.
func BenchmarkEngineTicker(b *testing.B) {
	e := sim.NewEngine(1)
	ticks := 0
	stop := e.Every(sim.Microsecond, func() { ticks++ })
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(sim.Time(b.N) * sim.Microsecond)
	b.StopTimer()
	stop()
	if ticks < b.N {
		b.Fatalf("ticker ran %d times, want ≥ %d", ticks, b.N)
	}
}

// BenchmarkEngineCancelStorm measures a start/stop ticker cycle with live
// traffic in the heap — the pattern that used to leak cancelled events until
// the engine learned to compact.
func BenchmarkEngineCancelStorm(b *testing.B) {
	benchOp(b, cancelStormRig())
}

// holdMixes approximate the event-queue shapes of three perfbench mixes:
// depth is the mean queue depth a probe measured at seed 1, and delay draws
// how far ahead an event re-arms, following the push delays the probe
// reported.
var holdMixes = []struct {
	name  string
	depth int
	delay func(r *rand.Rand) sim.Time
}{
	// netperf-rx-1core: a shallow queue of near-term events.
	{"depth-11", 11, func(r *rand.Rand) sim.Time {
		if r.Intn(2) == 0 {
			return 10 * sim.Microsecond
		}
		return sim.Time(r.Intn(5000)) * sim.Nanosecond
	}},
	// netperf-bidir-28core: 71-85% of pushes are the generator's 10 µs
	// re-arm, and about 95% of queued entries lie more than 100 µs ahead
	// (TX completions queued behind the egress wire).
	{"depth-1400", 1400, func(r *rand.Rand) sim.Time {
		if r.Intn(100) < 78 {
			return 10 * sim.Microsecond
		}
		return 100*sim.Microsecond + sim.Time(r.Int63n(int64(sim.Millisecond)))
	}},
	// memcached-28core: 44-46% of pushes at delay 0.
	{"depth-6300", 6300, func(r *rand.Rand) sim.Time {
		switch x := r.Intn(100); {
		case x < 45:
			return 0
		case x < 80:
			return sim.Time(1+r.Intn(20)) * sim.Microsecond
		default:
			return 100*sim.Microsecond + sim.Time(r.Int63n(int64(2*sim.Millisecond)))
		}
	}},
}

// BenchmarkEngineHold measures the event queue at the depths the perfbench
// mixes run, in the classic hold model: every executed event re-arms itself
// with a delay drawn from the mix, so the depth stays constant. One op is
// one pop plus one push.
func BenchmarkEngineHold(b *testing.B) {
	for _, mix := range holdMixes {
		b.Run(mix.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]sim.Time, 4096) // a power of two
			for i := range delays {
				delays[i] = mix.delay(rng)
			}
			e := sim.NewEngine(1)
			k, left := 0, -1 // left < 0: re-arm without counting
			var fn func()
			fn = func() {
				if left == 0 {
					return // draining after the timed region
				}
				e.After(delays[k&(len(delays)-1)], fn)
				k++
				if left > 0 {
					if left--; left == 0 {
						b.StopTimer()
					}
				}
			}
			for i := 0; i < mix.depth; i++ {
				e.After(delays[i&(len(delays)-1)], fn)
			}
			for e.Processed() < uint64(20*mix.depth) {
				e.Run(e.Now() + 10*sim.Microsecond) // reach the steady shape
			}
			if e.Pending() != mix.depth {
				b.Fatalf("depth %d, want %d", e.Pending(), mix.depth)
			}
			left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			e.RunUntilIdle()
		})
	}
}

// BenchmarkBuddyAllocFree measures the buddy page allocator.
func BenchmarkBuddyAllocFree(b *testing.B) {
	m, err := mem.New(mem.Config{TotalBytes: 256 << 20, NUMANodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.AllocPages(4, 0)
		if err != nil {
			b.Fatal(err)
		}
		m.FreePages(p, 4)
	}
}

// ---- Macro benchmarks ----

var quickOpts = experiments.Options{Quick: true}

// BenchmarkCatalog reruns one catalog entry per iteration in quick mode,
// one sub-benchmark per entry: the paper's tables and figures and the
// figures beyond the paper. The shape tests in internal/experiments and the
// quick catalog's byte-identity pin their numbers; this times them.
func BenchmarkCatalog(b *testing.B) {
	for _, fig := range experiments.Catalog() {
		b.Run(fig.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fig.Run(quickOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopologyRing measures the sharded conservative-parallel topology
// engine: the same 4-machine DAMN ring advanced by one host worker and by
// one worker per machine (GOMAXPROCS workers, at least two, at most one per
// machine). The two results must be identical — host workers change wall
// clock only. On a multi-CPU host the parallel run must also be at least
// 1.5× faster; with one CPU the workers timeslice it and no speedup is
// expected.
func BenchmarkTopologyRing(b *testing.B) {
	const machines = 4
	workers := min(max(runtime.GOMAXPROCS(0), 2), machines)
	ring := func(w int) (workloads.RingResult, time.Duration) {
		start := time.Now()
		res, err := workloads.RunRing(workloads.RingConfig{
			Scheme: testbed.SchemeDAMN, Machines: machines, Workers: w,
			Seed: 1, Duration: 120 * sim.Millisecond, Warmup: 10 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		serial, serialTime := ring(1)
		par, parTime := ring(workers)
		if !reflect.DeepEqual(serial, par) {
			b.Fatal("parallel topology run diverges from serial")
		}
		speedup := serialTime.Seconds() / parTime.Seconds()
		b.ReportMetric(speedup, "speedup-x")
		if runtime.NumCPU() >= 2 && speedup < 1.5 {
			b.Fatalf("%d-machine topology speedup %.2f× with %d workers on %d CPUs (serial %.2fs, parallel %.2fs, %d epochs), want >= 1.5×",
				machines, speedup, workers, runtime.NumCPU(), serialTime.Seconds(), parTime.Seconds(), serial.Epochs)
		}
	}
}

// BenchmarkSuiteQuick reruns the entire quick-mode evaluation suite (every
// paper figure, in catalog order) once per iteration — serially and fanned
// across GOMAXPROCS workers. Output byte-identity between the two is
// asserted on every iteration.
func BenchmarkSuiteQuick(b *testing.B) {
	var serialOut string
	b.Run("parallel-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := experiments.RunSuite(experiments.Options{Quick: true, Seed: 1, Parallel: 1})
			if err != nil {
				b.Fatal(err)
			}
			serialOut = out
		}
	})
	workers := runtime.GOMAXPROCS(0)
	b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := experiments.RunSuite(experiments.Options{Quick: true, Seed: 1, Parallel: workers})
			if err != nil {
				b.Fatal(err)
			}
			if serialOut != "" && out != serialOut {
				b.Fatal("parallel suite output diverged from the serial run")
			}
		}
	})
}
