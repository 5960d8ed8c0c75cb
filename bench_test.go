// Benchmarks, two tiers:
//
//   - Micro: real wall-clock cost of the reproduction's hot data
//     structures (DAMN alloc/free fast path, the DMA-map interposition,
//     the legacy schemes' map/unmap, IOTLB lookups, skb accessors).
//   - Macro: one benchmark per table/figure of the paper; each iteration
//     reruns the experiment in quick mode and reports the headline number
//     as a custom metric (Gb/s, TPS, KIOPS …). These take seconds per
//     iteration by design.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package damn_test

import (
	"fmt"
	"runtime"
	"testing"

	damn "github.com/asplos18/damn"
	damncore "github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/experiments"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
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

// ---- Micro benchmarks ----

// BenchmarkDamnAllocFree measures the damn_alloc/damn_free fast path
// (per-core bump pointer + chunk refcount, §5.4).
func BenchmarkDamnAllocFree(b *testing.B) {
	m := benchMachine(b, damn.SchemeDAMN)
	d := m.DamnAllocator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, err := d.Alloc(damnCtx, testbed.NICDeviceID, iommu.PermWrite, 1500)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Free(damnCtx, pa); err != nil {
			b.Fatal(err)
		}
	}
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
	for _, scheme := range []damn.Scheme{
		damn.SchemeOff, damn.SchemeStrict, damn.SchemeDeferred, damn.SchemeShadow, damn.SchemeDAMN,
	} {
		b.Run(string(scheme), func(b *testing.B) {
			m := benchMachine(b, scheme)
			tb := m.Testbed()
			pa, damnOwned, err := tb.Kernel.AllocBuffer(nil, testbed.NICDeviceID, iommu.PermWrite, 4096)
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Kernel.FreeBuffer(nil, pa, damnOwned)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := tb.DMA.Map(nil, testbed.NICDeviceID, pa, 4096, dmaapi.FromDevice)
				if err != nil {
					b.Fatal(err)
				}
				if err := tb.DMA.Unmap(nil, testbed.NICDeviceID, v, 4096, dmaapi.FromDevice); err != nil {
					b.Fatal(err)
				}
			}
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

// ---- Engine micro benchmarks ----
//
// The event loop underneath every simulation. The free-list pool and the
// reusable ticker event make all three steady-state paths allocation-free;
// these benchmarks are the regression gate (cmd/benchreport records them in
// BENCH_PR10.json).

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
	e := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop := e.Every(sim.Microsecond, fn)
		e.After(sim.Microsecond/2, fn)
		stop()
		e.RunUntilIdle()
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

// ---- Macro benchmarks: one per table/figure ----

var quickOpts = experiments.Options{Quick: true}

// BenchmarkTable1Matrix regenerates the Table 1 security matrix by mounting
// the attack probes against every scheme.
func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("matrix incomplete")
		}
	}
}

// BenchmarkFig4SingleCore regenerates Fig 4 and reports damn's single-core
// RX throughput.
func BenchmarkFig4SingleCore(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "damn" && r.Dir == "RX" {
				gbps = r.Gbps
			}
		}
	}
	b.ReportMetric(gbps, "damn-RX-Gb/s")
}

// BenchmarkFig5MultiCore regenerates Fig 5 and reports strict's throttled
// multi-core RX throughput.
func BenchmarkFig5MultiCore(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "strict" && r.Dir == "RX" {
				gbps = r.Gbps
			}
		}
	}
	b.ReportMetric(gbps, "strict-RX-Gb/s")
}

// BenchmarkFig6Bidirectional regenerates Figures 1/6 and reports damn's
// aggregate throughput.
func BenchmarkFig6Bidirectional(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "damn" {
				gbps = r.TotalGbps
			}
		}
	}
	b.ReportMetric(gbps, "damn-total-Gb/s")
}

// BenchmarkTable3Variants regenerates Table 3 and reports damn's fraction
// of the iommu-off throughput.
func BenchmarkTable3Variants(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		pct = rows[0].PctOfIOMMU
	}
	b.ReportMetric(pct, "damn-%-of-off")
}

// BenchmarkFig2Interference regenerates Fig 2 and reports the shadow
// slowdown of the Graph500 co-runner.
func BenchmarkFig2Interference(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		var shadow, alone float64
		for _, r := range rows {
			switch r.Config {
			case "shadow":
				shadow = r.GraphIterSec
			case "no net":
				alone = r.GraphIterSec
			}
		}
		if alone > 0 {
			slowdown = shadow / alone
		}
	}
	b.ReportMetric(slowdown, "shadow-BFS-slowdown-x")
}

// BenchmarkFig7Memcached regenerates Fig 7 and reports strict's TPS.
func BenchmarkFig7Memcached(b *testing.B) {
	var tps float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "strict" {
				tps = r.TPS
			}
		}
	}
	b.ReportMetric(tps, "strict-TPS")
}

// BenchmarkFig8Tocttou regenerates Fig 8 and reports damn's CPU at the
// full-copy extreme.
func BenchmarkFig8Tocttou(b *testing.B) {
	var cpu float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "damn" && r.AccessedBytes == 64<<10 {
				cpu = r.CPUUtil * 100
			}
		}
	}
	b.ReportMetric(cpu, "damn-64KiB-CPU-%")
}

// BenchmarkFig9PagesMapped regenerates Fig 9 and reports the final
// ever-mapped page count.
func BenchmarkFig9PagesMapped(b *testing.B) {
	var ever float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig9(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		ever = float64(points[len(points)-1].EverPages)
	}
	b.ReportMetric(ever, "ever-mapped-pages")
}

// BenchmarkFig10Memory regenerates Fig 10 and reports damn's bidirectional
// 28-instance memory usage.
func BenchmarkFig10Memory(b *testing.B) {
	var mib float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "damn" && r.Direction == "bidir" && r.Instances == 28 {
				mib = r.AvgMiB
			}
		}
	}
	b.ReportMetric(mib, "damn-bidir-MiB")
}

// BenchmarkFig11Nvme regenerates Fig 11 and reports shadow's 512 B IOPS
// (the §6.5 premise: prior schemes suffice for storage).
func BenchmarkFig11Nvme(b *testing.B) {
	var kiops float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "shadow" && r.BlockSize == 512 {
				kiops = r.KIOPS
			}
		}
	}
	b.ReportMetric(kiops, "shadow-512B-KIOPS")
}

// BenchmarkAblations regenerates the §5.4 design-ablation table and reports
// the no-DMA-cache configuration's throughput (the cost the permanent
// mapping avoids).
func BenchmarkAblations(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Config == "damn-no-dma-cache" {
				gbps = r.TotalGbps
			}
		}
	}
	b.ReportMetric(gbps, "no-cache-Gb/s")
}

// BenchmarkSuiteQuick reruns the entire quick-mode evaluation suite (every
// paper figure, in catalog order) once per iteration — serially and fanned
// across GOMAXPROCS workers. The parallel/serial ratio is the headline
// speedup recorded in BENCH_PR10.json; output byte-identity between the two
// is asserted on every iteration.
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
