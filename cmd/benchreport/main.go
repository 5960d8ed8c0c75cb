// Command benchreport measures the reproduction's performance envelope and
// writes it as a machine-readable JSON report (BENCH_PR10.json at the repo
// root, regenerated by `make bench`):
//
//   - engine: wall-clock microbenchmarks of the sim event loop
//     (schedule+dispatch, periodic tick, cancel-heavy ticker churn) with
//     ns/op, B/op and allocs/op. All three paths must report 0 allocs/op —
//     the engine's free-list pool, reusable ticker events and the ticker
//     free list are regression-gated on it.
//   - packet: microbenchmarks of the per-packet data path — the DAMN
//     alloc/free fast path, a dma_map+dma_unmap round trip under every
//     protection scheme, a warm IOTLB translation, one RX segment
//     end-to-end through the pooled skb path, and one ARQ loss-recovery
//     cycle (lost segment, dup-ACK fast retransmit, reorder flush, ACK
//     through the TX path), and the multi-tenant capability check (one
//     valid handle, one forged) that guards every map/unmap on a
//     tenant-owned ring, plus the kernel-bypass polling path: one idle
//     busy-poll tick and one segment through the virtqueue post/publish/
//     harvest/repost cycle. The RX path, the retransmit path, the DAMN fast
//     path, the capability check and both bypass paths are regression-gated
//     at 0 allocs/op.
//   - fig5: wall clock of one quick-mode Figure 5 run (the multi-core
//     netperf macro the packet-path work is measured against).
//   - scaling: the RSS scale-out figure (quick mode) — netperf RX Gb/s at
//     1/2/4/8/16 simulated cores per scheme, bypass columns included. Its
//     monotone-growth and strict-flattest gates are
//     TestScalingMonotoneAndDivergent (make scaling), not re-checked here.
//   - bypass: the kernel-bypass figure (quick mode) — single-core RX
//     goodput, CPU µs/MB (spin included), idle busy-poll burn and the
//     measured safety verdicts per scheme. The figure's own acceptance
//     gates apply: bypass-raw must beat iommu-off, bypass-prot must stay
//     within 10% of raw, and both must burn idle CPU.
//   - tenants: one quick-mode blast-radius run (DAMN scheme, 4 tenants,
//     one compromised): wall clock plus the containment headlines — worst
//     victim goodput ratio, Jain's index, where the attacker ended up and
//     what the capability gate and per-tenant domains blocked. The
//     containment gates are TestTenantsBlastRadius and
//     TestTenantsBlastRadiusGate (make tenants), not re-checked here.
//   - topo: wall-clock scaling of the sharded conservative-parallel
//     topology engine — a 4-machine ring run serially (one host worker)
//     and again with one worker per machine, byte-compared (the results
//     must be identical; host workers change wall clock only). On a
//     multi-CPU host the parallel leg is regression-gated at >= 1.5×; at
//     num_cpu 1 the -procs oversubscription still captures an honest
//     multi-worker datapoint (speedup ≈ 1×) instead of omitting the leg.
//   - suite: wall-clock of the full quick-mode evaluation suite (every
//     paper figure, catalog order) run serially (-parallel 1) and fanned
//     across workers, plus the resulting speedup. The two outputs are
//     compared byte-for-byte; "identical" must be true.
//
// The process pins GOMAXPROCS to runtime.NumCPU() (overridable with
// -procs) and refuses to run the parallel leg with a single worker or a
// single P: a report captured at gomaxprocs 1 cannot demonstrate scaling,
// and silently omitting speedup_x hid exactly that in earlier reports. On
// a genuinely single-CPU host, -procs 2 runs the parallel leg on two
// timesliced Ps — speedup_x then honestly reports ≈1× next to num_cpu: 1
// instead of the report quietly degrading to a serial capture.
//
// Usage:
//
//	benchreport [-out BENCH_PR10.json] [-parallel N] [-procs N] [-seed N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	damn "github.com/asplos18/damn"
	damncore "github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/experiments"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/tenant"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

type micro struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Engine map[string]micro `json:"engine"`
	Packet map[string]micro `json:"packet"`

	Fig5 struct {
		Seconds      float64 `json:"seconds"`
		StrictRXGbps float64 `json:"strict_rx_gbps"`
	} `json:"fig5"`

	// Tenants is the multi-tenant blast-radius macro: one quick DAMN run
	// with 4 tenants, one of them compromised mid-run.
	Tenants struct {
		Seconds        float64 `json:"seconds"`
		TenantCount    int     `json:"tenant_count"`
		AggGbps        float64 `json:"agg_gbps"`
		JainIndex      float64 `json:"jain_index"`
		VictimRatioMin float64 `json:"victim_ratio_min"`
		AttackerState  string  `json:"attacker_state"`
		CapDenials     uint64  `json:"cap_denials"`
		ProbesBlocked  uint64  `json:"probes_blocked"`
		ProbesLanded   int     `json:"probes_landed"`
		ReleasedPages  int64   `json:"released_pages"`
	} `json:"tenants"`

	// Scaling maps scheme name to RX Gb/s at each of the figure's core
	// counts, in ascending core order.
	Scaling struct {
		Seconds float64              `json:"seconds"`
		Cores   []int                `json:"cores"`
		RXGbps  map[string][]float64 `json:"rx_gbps"`
	} `json:"scaling"`

	// Bypass is the kernel-bypass macro: the polling-path figure's headline
	// numbers keyed by scheme. The figure's acceptance gates (raw beats
	// iommu-off, prot within 10% of raw, idle burn on both flavors, zero
	// used-ring publish faults) run inside the figure itself.
	Bypass struct {
		Seconds       float64            `json:"seconds"`
		RXGbps        map[string]float64 `json:"rx_gbps"`
		CPUPerMBus    map[string]float64 `json:"cpu_us_per_mb"`
		IdleBurnCores map[string]float64 `json:"idle_burn_cores"`
		SubpageSafe   map[string]bool    `json:"subpage_safe"`
		NoWindow      map[string]bool    `json:"no_window"`
	} `json:"bypass"`

	// Topo is the host-side scaling evidence for the sharded topology
	// engine: the same 4-machine ring advanced by 1 host worker and by one
	// worker per machine.
	Topo struct {
		Machines         int     `json:"machines"`
		Workers          int     `json:"workers"`
		GOMAXPROCS       int     `json:"gomaxprocs"`
		SerialSeconds    float64 `json:"serial_seconds"`
		ParallelSeconds  float64 `json:"parallel_seconds"`
		SpeedupX         float64 `json:"speedup_x"`
		ResultsIdentical bool    `json:"results_identical"`
		TotalGbps        float64 `json:"total_gbps"`
		Epochs           uint64  `json:"epochs"`
	} `json:"topo"`

	Suite struct {
		Mode              string  `json:"mode"`
		Workers           int     `json:"workers"`
		SerialSeconds     float64 `json:"serial_seconds"`
		ParallelSeconds   float64 `json:"parallel_seconds"`
		SpeedupX          float64 `json:"speedup_x,omitempty"`
		OutputIdentical   bool    `json:"output_identical"`
		OutputSizeBytes   int     `json:"output_size_bytes"`
		FiguresReproduced int     `json:"figures_reproduced"`
	} `json:"suite"`
}

func bench(f func(b *testing.B)) micro {
	r := testing.Benchmark(f)
	return micro{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func printMicros(section string, ms map[string]micro, order []string) {
	fmt.Fprintf(os.Stderr, "benchreport: %s microbenchmarks…\n", section)
	for _, name := range order {
		m := ms[name]
		fmt.Fprintf(os.Stderr, "  %-22s %8.1f ns/op  %4d B/op  %d allocs/op\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
}

func gateZeroAlloc(ms map[string]micro, names ...string) {
	for _, name := range names {
		if m := ms[name]; m.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr,
				"benchreport: REGRESSION: %s allocates (%d allocs/op, want 0)\n",
				name, m.AllocsPerOp)
			os.Exit(1)
		}
	}
}

func engineMicros() map[string]micro {
	return map[string]micro{
		"schedule_run": bench(func(b *testing.B) {
			e := sim.NewEngine(1)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(sim.Microsecond, fn)
				e.RunUntilIdle()
			}
		}),
		"ticker": bench(func(b *testing.B) {
			e := sim.NewEngine(1)
			stop := e.Every(sim.Microsecond, func() {})
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(sim.Time(b.N) * sim.Microsecond)
			b.StopTimer()
			stop()
		}),
		"cancel_storm": bench(func(b *testing.B) {
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
		}),
	}
}

// packetMicros mirrors the packet-path shapes of bench_test.go /
// alloc_test.go so the committed report carries the same numbers CI gates.
func packetMicros() map[string]micro {
	ms := make(map[string]micro)
	ctx := damncore.Ctx{}

	ms["damn_alloc_free"] = bench(func(b *testing.B) {
		m, err := damn.NewMachine(damn.Config{Scheme: damn.SchemeDAMN, MemBytes: 512 << 20, Cores: 4})
		if err != nil {
			b.Fatal(err)
		}
		d := m.DamnAllocator()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pa, err := d.Alloc(ctx, testbed.NICDeviceID, iommu.PermWrite, 1500)
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Free(ctx, pa); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, scheme := range []damn.Scheme{
		damn.SchemeOff, damn.SchemeStrict, damn.SchemeDeferred, damn.SchemeShadow, damn.SchemeDAMN,
	} {
		ms["dma_map_unmap_"+string(scheme)] = bench(func(b *testing.B) {
			m, err := damn.NewMachine(damn.Config{Scheme: scheme, MemBytes: 512 << 20, Cores: 4})
			if err != nil {
				b.Fatal(err)
			}
			tb := m.Testbed()
			pa, damnOwned, err := tb.Kernel.AllocBuffer(nil, testbed.NICDeviceID, iommu.PermWrite, 4096)
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Kernel.FreeBuffer(nil, pa, damnOwned)
			b.ReportAllocs()
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

	ms["iommu_translate"] = bench(func(b *testing.B) {
		m, err := damn.NewMachine(damn.Config{Scheme: damn.SchemeDAMN, MemBytes: 512 << 20, Cores: 4})
		if err != nil {
			b.Fatal(err)
		}
		buf, err := m.AllocPacketBuffer(damn.RightsWrite, 4096)
		if err != nil {
			b.Fatal(err)
		}
		u := m.Testbed().IOMMU
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.Translate(testbed.NICDeviceID, buf.DMAAddr, true); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One full ARQ loss-recovery cycle: a lost segment, dup-ACK detection,
	// fast retransmit, reorder flush and the cumulative ACK through the TX
	// DMA path — the retransmit path is regression-gated at 0 allocs/op.
	ms["arq_retransmit"] = bench(func(b *testing.B) {
		ma, err := testbed.NewMachine(testbed.MachineConfig{
			Scheme:   testbed.SchemeDAMN,
			MemBytes: 256 << 20,
			Cores:    2,
			RingSize: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ma.FillAllRings(); err != nil {
			b.Fatal(err)
		}
		src := netip.AddrFrom4([4]byte{192, 168, 0, 1})
		dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
		const segLen = 1500
		dropNext := false
		arq := netstack.NewArqSender(ma.Sim, netstack.ArqConfig{SegLen: segLen},
			func(seg *netstack.ArqSegment, retx bool) {
				if !retx {
					payload := seg.Len - netstack.HeaderLen
					byteSeq := (seg.Seq - 1) * uint32(payload)
					seg.Hdr = netstack.AppendHeaders(seg.HdrBuf(), src, dst, 10001, 5001, byteSeq, payload)
					if dropNext {
						dropNext = false
						return
					}
				}
				ma.NIC.InjectRX(0, device.Segment{Flow: 1, Seq: seg.Seq, Len: seg.Len, Header: seg.Hdr})
			})
		recv := &netstack.Receiver{K: ma.Kernel}
		rr := netstack.NewReliableReceiver(recv, ma.Driver, 0, 0, arq)
		ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
			rr.HandleSegment(task, skb)
		}
		cycle := func() {
			dropNext = true
			for i := 0; i < 4; i++ {
				arq.SendNext()
			}
			ma.Sim.RunUntilIdle()
		}
		for i := 0; i < 200; i++ {
			cycle()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	})

	// The multi-tenant capability check the driver runs before every map and
	// unmap on a tenant-owned ring: one valid handle, one forged one, both
	// counted through the stats registry — the worst case the fast path
	// pays, gated at 0 allocs/op.
	ms["cap_check"] = bench(func(b *testing.B) {
		tab := tenant.NewTable(4)
		tab.SetStats(stats.NewRegistry())
		tab.AssignRing(0, 0)
		tab.AssignRing(1, 1)
		tab.Present(1, tenant.Handle{Tenant: 0}) // forged: wrong tenant
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !tab.CheckRing(0) {
				b.Fatal("valid capability denied")
			}
			if tab.CheckRing(1) {
				b.Fatal("forged capability passed")
			}
		}
	})

	// The kernel-bypass polling path: one idle busy-poll tick (pinned
	// ticker, pooled poll task, empty harvest) and one segment through the
	// full virtqueue cycle (avail post, DMA, used-element publish through
	// the per-app domain, burst harvest, repost behind one doorbell). The
	// engine is advanced in bounded windows — a poll ticker never idles.
	bypassRig := func(b *testing.B, scheme testbed.Scheme) (*testbed.Machine, *netstack.BypassDriver) {
		ma, err := testbed.NewMachine(testbed.MachineConfig{
			Scheme: scheme, MemBytes: 256 << 20, Cores: 2, RingSize: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		d := netstack.NewBypassDriver(ma.Kernel, ma.NIC, 0, testbed.BypassDeviceID,
			scheme == testbed.SchemeBypassProt)
		var setupErr error
		d.Core().Submit(false, func(task *sim.Task) { setupErr = d.Setup(task) })
		ma.Sim.Run(ma.Sim.Now())
		if setupErr != nil {
			b.Fatal(setupErr)
		}
		d.Start()
		return ma, d
	}

	ms["bypass_poll_tick"] = bench(func(b *testing.B) {
		ma, _ := bypassRig(b, testbed.SchemeBypassRaw)
		interval := ma.Model.BypassPollInterval
		for i := 0; i < 200; i++ {
			ma.Sim.Run(ma.Sim.Now() + interval)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ma.Sim.Run(ma.Sim.Now() + interval)
		}
	})

	ms["vq_post_harvest"] = bench(func(b *testing.B) {
		ma, d := bypassRig(b, testbed.SchemeBypassProt)
		window := 4 * ma.Model.BypassPollInterval
		hdr := []byte("hdr:steady")
		inject := func() {
			ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
			ma.Sim.Run(ma.Sim.Now() + window)
		}
		for i := 0; i < 200; i++ {
			inject()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inject()
		}
		b.StopTimer()
		if d.Harvested == 0 || d.Virtqueue().PublishFaults != 0 {
			b.Fatalf("virtqueue path did not run cleanly: %d harvested, %d publish faults",
				d.Harvested, d.Virtqueue().PublishFaults)
		}
	})

	ms["rx_skb_path"] = bench(func(b *testing.B) {
		ma, err := testbed.NewMachine(testbed.MachineConfig{
			Scheme:   testbed.SchemeDAMN,
			MemBytes: 256 << 20,
			Cores:    2,
			RingSize: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		recv := &netstack.Receiver{K: ma.Kernel}
		ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
			recv.HandleSegment(task, skb)
		}
		if err := ma.FillAllRings(); err != nil {
			b.Fatal(err)
		}
		hdr := []byte("hdr:steady")
		inject := func() {
			ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
			ma.Sim.RunUntilIdle()
		}
		for i := 0; i < 200; i++ {
			inject() // warm every pool before measuring the steady state
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inject()
		}
	})

	return ms
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "report output path")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker count for the parallel suite run")
	procs := flag.Int("procs", runtime.NumCPU(), "GOMAXPROCS to pin (>= 2; on a 1-CPU host pass 2 for a timesliced parallel leg)")
	seed := flag.Int64("seed", 1, "simulation seed for the suite runs")
	flag.Parse()

	// Pin GOMAXPROCS explicitly: the report's whole point is host-side
	// scaling evidence, so it must not inherit a GOMAXPROCS=1 environment
	// and silently record a serial run as "parallel".
	runtime.GOMAXPROCS(*procs)
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "benchreport: FAIL: gomaxprocs 1 cannot demonstrate scaling; on a single-CPU host rerun with -procs 2 -parallel 2")
		os.Exit(1)
	}

	var rep report
	rep.Schema = "damn-bench/6"
	rep.GoVersion = runtime.Version()
	rep.GOOS, rep.GOARCH = runtime.GOOS, runtime.GOARCH
	rep.NumCPU = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)

	// Engine microbenchmarks — same shapes as bench_test.go.
	rep.Engine = engineMicros()
	printMicros("engine", rep.Engine, []string{"schedule_run", "ticker", "cancel_storm"})
	gateZeroAlloc(rep.Engine, "schedule_run", "ticker", "cancel_storm")

	// Packet-path microbenchmarks — the per-packet data path must stay
	// allocation-free in steady state.
	rep.Packet = packetMicros()
	printMicros("packet", rep.Packet, []string{
		"damn_alloc_free",
		"dma_map_unmap_iommu-off", "dma_map_unmap_strict", "dma_map_unmap_deferred",
		"dma_map_unmap_shadow", "dma_map_unmap_damn",
		"iommu_translate", "cap_check", "rx_skb_path", "arq_retransmit",
		"bypass_poll_tick", "vq_post_harvest",
	})
	gateZeroAlloc(rep.Packet, "damn_alloc_free", "rx_skb_path", "arq_retransmit", "cap_check",
		"bypass_poll_tick", "vq_post_harvest")

	// Figure 5 macro: one quick-mode run, wall clock + headline number.
	workers := *parallel
	if workers < 2 {
		// A one-worker "parallel" leg is the serial leg again. Earlier
		// reports silently omitted speedup_x here, which let a GOMAXPROCS=1
		// capture masquerade as scaling evidence — now it's a hard failure.
		fmt.Fprintf(os.Stderr, "benchreport: FAIL: -parallel %d cannot demonstrate scaling; use -parallel >= 2\n", workers)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchreport: Figure 5 macro…")
	fig5Start := time.Now()
	fig5Rows, err := experiments.Fig5(experiments.Options{Quick: true, Seed: *seed, Parallel: workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: fig5: %v\n", err)
		os.Exit(1)
	}
	rep.Fig5.Seconds = time.Since(fig5Start).Seconds()
	for _, r := range fig5Rows {
		if r.Dir == "RX" && r.Scheme == string(testbed.SchemeStrict) {
			rep.Fig5.StrictRXGbps = r.Gbps
		}
	}
	fmt.Fprintf(os.Stderr, "  fig5: %.2fs (strict RX %.2f Gb/s)\n", rep.Fig5.Seconds, rep.Fig5.StrictRXGbps)

	// Multi-tenant blast-radius macro: one compromised tenant out of four on
	// the DAMN scheme, recorded only (the containment gates are tests).
	fmt.Fprintln(os.Stderr, "benchreport: tenants blast-radius macro…")
	tenStart := time.Now()
	tenRes, err := workloads.RunTenants(workloads.TenantsConfig{
		Scheme: testbed.SchemeDAMN, Tenants: 4, FaultSeed: *seed,
		Warmup: 2 * sim.Millisecond, Measure: 4 * sim.Millisecond,
		Attack: true, AttackLen: 4 * sim.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: tenants: %v\n", err)
		os.Exit(1)
	}
	rep.Tenants.Seconds = time.Since(tenStart).Seconds()
	rep.Tenants.TenantCount = tenRes.Tenants
	rep.Tenants.AggGbps = tenRes.AggGbps
	rep.Tenants.JainIndex = tenRes.JainIndex
	rep.Tenants.VictimRatioMin = tenRes.VictimRatioMin
	rep.Tenants.AttackerState = tenRes.AttackerState
	rep.Tenants.CapDenials = tenRes.CapDenials
	rep.Tenants.ProbesBlocked = tenRes.ProbesBlocked
	rep.Tenants.ProbesLanded = tenRes.ProbesLanded
	rep.Tenants.ReleasedPages = tenRes.ReleasedPages
	fmt.Fprintf(os.Stderr, "  tenants: %.2fs (victim min %.3f, attacker %s, %d probes blocked)\n",
		rep.Tenants.Seconds, tenRes.VictimRatioMin, tenRes.AttackerState, tenRes.ProbesBlocked)

	// RSS scale-out figure: record the whole grid (its gates are tests).
	fmt.Fprintln(os.Stderr, "benchreport: scaling figure…")
	scalStart := time.Now()
	scalRows, err := experiments.Scaling(experiments.Options{Quick: true, Seed: *seed, Parallel: workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: scaling: %v\n", err)
		os.Exit(1)
	}
	rep.Scaling.Seconds = time.Since(scalStart).Seconds()
	rep.Scaling.RXGbps = map[string][]float64{}
	for _, r := range scalRows {
		if r.Scheme == scalRows[0].Scheme {
			rep.Scaling.Cores = append(rep.Scaling.Cores, r.Cores)
		}
		rep.Scaling.RXGbps[r.Scheme] = append(rep.Scaling.RXGbps[r.Scheme], r.RXGbps)
	}
	fmt.Fprintf(os.Stderr, "  scaling: %.2fs over %v cores\n", rep.Scaling.Seconds, rep.Scaling.Cores)

	// Kernel-bypass figure: headline numbers per scheme. The acceptance
	// gates (raw beats iommu-off, prot within 10% of raw, idle busy-poll
	// burn on both, zero publish faults) are the figure's own — an error
	// here is a regression.
	fmt.Fprintln(os.Stderr, "benchreport: kernel-bypass figure…")
	bypStart := time.Now()
	bypRows, err := experiments.Bypass(experiments.Options{Quick: true, Seed: *seed, Parallel: workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: REGRESSION: bypass: %v\n", err)
		os.Exit(1)
	}
	rep.Bypass.Seconds = time.Since(bypStart).Seconds()
	rep.Bypass.RXGbps = map[string]float64{}
	rep.Bypass.CPUPerMBus = map[string]float64{}
	rep.Bypass.IdleBurnCores = map[string]float64{}
	rep.Bypass.SubpageSafe = map[string]bool{}
	rep.Bypass.NoWindow = map[string]bool{}
	for _, r := range bypRows {
		rep.Bypass.RXGbps[r.Scheme] = r.RXGbps
		rep.Bypass.CPUPerMBus[r.Scheme] = r.CPUPerMBus
		rep.Bypass.IdleBurnCores[r.Scheme] = r.IdleBurnCores
		rep.Bypass.SubpageSafe[r.Scheme] = r.Subpage
		rep.Bypass.NoWindow[r.Scheme] = r.NoWindow
	}
	raw, prot := string(testbed.SchemeBypassRaw), string(testbed.SchemeBypassProt)
	fmt.Fprintf(os.Stderr, "  %s %.1f Gb/s @ %.1f µs/MB (idle burn %.2f cores); %s %.1f Gb/s; iommu-off %.1f Gb/s\n",
		raw, rep.Bypass.RXGbps[raw], rep.Bypass.CPUPerMBus[raw], rep.Bypass.IdleBurnCores[raw],
		prot, rep.Bypass.RXGbps[prot], rep.Bypass.RXGbps[string(testbed.SchemeOff)])

	// Topology engine wall-clock scaling: the same 4-machine ring advanced
	// serially and with one host worker per machine. The results must be
	// identical (the conservative-parallel executor's whole contract); the
	// speedup is the payoff the sharding exists for, gated only where the
	// host can physically provide it.
	const topoMachines = 4
	topoWorkers := workers
	if topoWorkers > topoMachines {
		topoWorkers = topoMachines
	}
	ringCfg := func(w int) workloads.RingConfig {
		return workloads.RingConfig{
			Scheme: testbed.SchemeDAMN, Machines: topoMachines, Workers: w,
			Seed: *seed, Duration: 120 * sim.Millisecond, Warmup: 10 * sim.Millisecond,
		}
	}
	fmt.Fprintf(os.Stderr, "benchreport: %d-machine ring, serial…\n", topoMachines)
	topoStart := time.Now()
	ringSerial, err := workloads.RunRing(ringCfg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: topo serial: %v\n", err)
		os.Exit(1)
	}
	rep.Topo.SerialSeconds = time.Since(topoStart).Seconds()
	fmt.Fprintf(os.Stderr, "  1 worker:  %.2fs (%.1f Gb/s simulated)\n", rep.Topo.SerialSeconds, ringSerial.TotalGbps)
	fmt.Fprintf(os.Stderr, "benchreport: %d-machine ring, %d workers…\n", topoMachines, topoWorkers)
	topoStart = time.Now()
	ringPar, err := workloads.RunRing(ringCfg(topoWorkers))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: topo parallel: %v\n", err)
		os.Exit(1)
	}
	rep.Topo.ParallelSeconds = time.Since(topoStart).Seconds()
	rep.Topo.Machines = topoMachines
	rep.Topo.Workers = topoWorkers
	rep.Topo.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Topo.SpeedupX = rep.Topo.SerialSeconds / rep.Topo.ParallelSeconds
	rep.Topo.ResultsIdentical = reflect.DeepEqual(ringSerial, ringPar)
	rep.Topo.TotalGbps = ringSerial.TotalGbps
	rep.Topo.Epochs = ringSerial.Epochs
	fmt.Fprintf(os.Stderr, "  %d workers: %.2fs (%.2f× speedup, results identical: %v)\n",
		topoWorkers, rep.Topo.ParallelSeconds, rep.Topo.SpeedupX, rep.Topo.ResultsIdentical)
	if !rep.Topo.ResultsIdentical {
		fmt.Fprintln(os.Stderr, "benchreport: REGRESSION: parallel topology run diverges from serial")
		os.Exit(1)
	}
	// The speedup gate needs real CPUs: with -procs oversubscription on a
	// single-CPU host the workers timeslice one core, so the leg documents
	// ≈1× honestly rather than failing on hardware it cannot control.
	if rep.NumCPU >= 2 && rep.Topo.SpeedupX < 1.5 {
		fmt.Fprintf(os.Stderr, "benchreport: REGRESSION: %d-machine topology speedup %.2f× on %d CPUs, want >= 1.5×\n",
			topoMachines, rep.Topo.SpeedupX, rep.NumCPU)
		os.Exit(1)
	}

	// Suite wall clock, serial vs parallel, byte-compared.
	runSuite := func(p int) (string, float64) {
		start := time.Now()
		text, err := experiments.RunSuite(experiments.Options{Quick: true, Seed: *seed, Parallel: p})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: suite (-parallel %d): %v\n", p, err)
			os.Exit(1)
		}
		return text, time.Since(start).Seconds()
	}
	fmt.Fprintln(os.Stderr, "benchreport: quick suite, serial…")
	serialText, serialSec := runSuite(1)
	fmt.Fprintf(os.Stderr, "  -parallel 1: %.1fs\n", serialSec)
	fmt.Fprintf(os.Stderr, "benchreport: quick suite, %d workers…\n", workers)
	parText, parSec := runSuite(workers)

	rep.Suite.Mode = "quick"
	rep.Suite.Workers = workers
	rep.Suite.SerialSeconds = serialSec
	rep.Suite.ParallelSeconds = parSec
	rep.Suite.SpeedupX = serialSec / parSec
	fmt.Fprintf(os.Stderr, "  -parallel %d: %.1fs (%.2f× speedup)\n", workers, parSec, rep.Suite.SpeedupX)
	rep.Suite.OutputIdentical = serialText == parText
	rep.Suite.OutputSizeBytes = len(serialText)
	for _, fig := range experiments.Catalog() {
		if fig.Paper {
			rep.Suite.FiguresReproduced++
		}
	}
	if !rep.Suite.OutputIdentical {
		fmt.Fprintln(os.Stderr, "benchreport: REGRESSION: parallel suite output diverges from serial")
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s\n", *out)
}
