package workloads

import (
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

func quickMachine(t testing.TB, scheme testbed.Scheme) *testbed.Machine {
	t.Helper()
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: scheme, MemBytes: 512 << 20, RingSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ma
}

// faultMachine builds the fault-plane harnesses' machine: the default
// 1 GiB testbed with the given cores, engine seed 0 and a fault plane
// rooted at seed (nil rates: every kind at zero). The caller releases it.
func faultMachine(t testing.TB, scheme testbed.Scheme, cores int, seed int64, rates map[faults.Kind]float64) *testbed.Machine {
	t.Helper()
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: scheme, Cores: cores,
		Faults: &faults.Config{Seed: seed, Rates: rates},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ma
}

func TestMemcachedMakesProgress(t *testing.T) {
	// Eight cores run eight instances, one per core.
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: testbed.SchemeDAMN, MemBytes: 512 << 20, RingSize: 16, Cores: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMemcached(MemcachedConfig{
		Machine: ma, Warmup: 5 * sim.Millisecond, Duration: 20 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TPS < 1000 {
		t.Fatalf("TPS = %.0f", res.TPS)
	}
	if res.CPUUtil <= 0 || res.CPUUtil > 1 {
		t.Fatalf("CPUUtil = %f", res.CPUUtil)
	}
}

// TestMemcachedSurvivesAllocFailBurst: a response whose skb allocation
// fails must keep its memslap slot alive, as a response the TX ring rejects
// does. A 200 µs burst in which every page allocation fails hits every
// scheme's slots; in a window that opens 2.8 ms after it, each scheme must
// serve at least 90% of the requests an identical machine serves without
// the burst.
func TestMemcachedSurvivesAllocFailBurst(t *testing.T) {
	run := func(scheme testbed.Scheme, burst bool) float64 {
		ma, err := testbed.NewMachine(testbed.MachineConfig{
			Scheme: scheme, MemBytes: 256 << 20, Cores: 4, Faults: &faults.Config{Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ma.Close()
		if burst {
			ma.Sim.At(2*sim.Millisecond, func() { ma.Faults.SetRate(faults.AllocFail, 1) })
			ma.Sim.At(2200*sim.Microsecond, func() { ma.Faults.SetRate(faults.AllocFail, 0) })
		}
		res, err := RunMemcached(MemcachedConfig{
			Machine: ma, Warmup: 5 * sim.Millisecond, Duration: 10 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if burst && ma.Faults.Injected(faults.AllocFail) == 0 {
			t.Fatalf("%s: the burst failed no allocation", scheme)
		}
		return res.TPS
	}
	for _, scheme := range testbed.AllSchemes {
		clean, hit := run(scheme, false), run(scheme, true)
		if hit < 0.9*clean {
			t.Errorf("%s: %.0f TPS after the burst, %.0f without it", scheme, hit, clean)
		}
	}
}

func TestGraph500CompletesIterations(t *testing.T) {
	ma := quickMachine(t, testbed.SchemeOff)
	g := StartGraph500(Graph500Config{
		Machine: ma, Cores: []int{0, 1, 2, 3}, Vertices: 1 << 10,
	})
	ma.Sim.Run(200 * sim.Millisecond)
	g.Stop()
	if g.Iterations < 2 {
		t.Fatalf("iterations = %d", g.Iterations)
	}
	if g.MeanIterTime() <= 0 {
		t.Fatal("no iteration time recorded")
	}
	// Stopping halts the loop.
	n := g.Iterations
	ma.Sim.Run(ma.Sim.Now() + 100*sim.Millisecond)
	if g.Iterations != n {
		t.Fatal("instance kept iterating after Stop")
	}
}

func TestGraph500SlowsUnderMemoryPressure(t *testing.T) {
	// Saturate the controller with synthetic traffic; the BFS iteration
	// time must grow (the Fig 2 mechanism in isolation).
	base := func(pressure bool) sim.Time {
		ma := quickMachine(t, testbed.SchemeOff)
		if pressure {
			ma.Sim.Every(2*sim.Microsecond, func() {
				ma.MemBW.Use(ma.Sim.Now(), 150_000) // 75 GB/s of noise
			})
		}
		g := StartGraph500(Graph500Config{
			Machine: ma, Cores: []int{0, 1, 2, 3}, Vertices: 1 << 10,
		})
		ma.Sim.Run(200 * sim.Millisecond)
		g.Stop()
		if g.MeanIterTime() == 0 {
			t.Fatal("no iterations completed")
		}
		return g.MeanIterTime()
	}
	quiet := base(false)
	loud := base(true)
	if loud < quiet*5/4 {
		t.Fatalf("BFS under pressure %v should exceed quiet %v by ≥25%%", loud, quiet)
	}
}

func TestKCompileChurnsAllocator(t *testing.T) {
	ma := quickMachine(t, testbed.SchemeOff)
	before := ma.Mem.AllocatedPages()
	kc := StartKCompile(ma, []int{0, 1}, 42)
	ma.Sim.Run(50 * sim.Millisecond)
	held := ma.Mem.AllocatedPages()
	if held <= before {
		t.Fatal("kcompile allocated nothing")
	}
	kc.Stop()
	if got := ma.Mem.AllocatedPages(); got != before {
		t.Fatalf("kcompile leaked %d pages", got-before)
	}
}

func TestFioRunsAllSchemes(t *testing.T) {
	for _, scheme := range []testbed.Scheme{testbed.SchemeOff, testbed.SchemeStrict, testbed.SchemeShadow} {
		ma, err := testbed.NewMachine(testbed.MachineConfig{
			Scheme: scheme, MemBytes: 128 << 20, Seed: 1, NoNIC: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nvme := device.NewNVMe(ma.Sim, ma.IOMMU, ma.Model, ma.Cores,
			device.DefaultP3700(testbed.NVMeDeviceID))
		res, err := RunFio(FioConfig{
			Machine: ma, NVMe: nvme, BlockSize: 4096,
			Warmup: 2 * sim.Millisecond, Duration: 10 * sim.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.IOPS < 10_000 {
			t.Fatalf("%s: IOPS = %.0f", scheme, res.IOPS)
		}
		if nvme.Faults != 0 {
			t.Fatalf("%s: %d DMA faults on legitimate traffic", scheme, nvme.Faults)
		}
	}
}
