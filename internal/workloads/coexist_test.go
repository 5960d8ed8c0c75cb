package workloads

import (
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// TestDamnCoexistsWithFallbackScheme exercises §5.3/§6.5: on a single
// machine, the NIC's traffic flows through DAMN (permanent mappings, no
// DMA-API work) while the NVMe SSD — which DAMN cannot serve (§2.2) — is
// protected by the fallback deferred scheme, concurrently.
func TestDamnCoexistsWithFallbackScheme(t *testing.T) {
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: testbed.SchemeDAMN, MemBytes: 512 << 20, RingSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	nvme := device.NewNVMe(ma.Sim, ma.IOMMU, ma.Model, ma.Cores,
		device.DefaultP3700(testbed.NVMeDeviceID))

	// Drive both workloads over the same simulated window: submit fio's
	// storage load (cores of the second socket) without advancing time,
	// then let RunNetperf drive the engine for both.
	fioCfg := FioConfig{Machine: ma, NVMe: nvme, BlockSize: 4096}
	netCfg := NetperfConfig{
		Machine: ma, RXCores: []int{0, 1, 2, 3},
		Warmup: 5 * sim.Millisecond, Duration: 30 * sim.Millisecond,
	}
	fioStarted := startFioThreads(t, fioCfg)

	netRes, err := RunNetperf(netCfg)
	if err != nil {
		t.Fatal(err)
	}
	fioRes := fioStarted.collect(ma)

	if netRes.RXGbps < 20 {
		t.Fatalf("netperf under coexistence: %.1f Gb/s", netRes.RXGbps)
	}
	if fioRes.IOPS < 50_000 {
		t.Fatalf("fio under coexistence: %.0f IOPS", fioRes.IOPS)
	}
	// The NIC path never touched the DMA API's dynamic machinery…
	if ma.IOMMU.Unmappings == 0 {
		t.Fatal("expected NVMe unmaps through the fallback scheme")
	}
	// …while the NVMe path did: deferred batching really ran.
	if ma.Deferred.S.Flushes == 0 && ma.Deferred.S.PendingInvalidations() == 0 {
		t.Fatal("fallback scheme saw no NVMe traffic")
	}
	if ma.Damn.FootprintBytes() == 0 {
		t.Fatal("DAMN saw no NIC traffic")
	}
	t.Logf("coexistence: netperf %.1f Gb/s + fio %.0f IOPS; deferred flushes %d",
		netRes.RXGbps, fioRes.IOPS, ma.Deferred.S.Flushes)
}

// fioThreads is the started-but-not-driven state for coexistence tests.
type fioThreads struct {
	threads []*fioThread
	t0      sim.Time
}

// startFioThreads allocates buffers and submits the initial queue depth
// without driving the engine.
func startFioThreads(t *testing.T, cfg FioConfig) *fioThreads {
	t.Helper()
	ma := cfg.Machine
	ft := &fioThreads{t0: ma.Sim.Now()}
	for i := 0; i < fioThreadCount; i++ {
		p, err := ma.Mem.AllocPages(0, i%ma.Model.NumNodes)
		if err != nil {
			t.Fatal(err)
		}
		th := &fioThread{cfg: &cfg, qp: i, core: ma.Cores[(14+i)%len(ma.Cores)], buf: p.PFN().Addr()}
		ft.threads = append(ft.threads, th)
		for d := 0; d < 8; d++ {
			th.submit()
		}
	}
	return ft
}

// collect stops the threads and reports IOPS over the elapsed window.
func (ft *fioThreads) collect(ma *testbed.Machine) FioResult {
	var ops uint64
	for _, th := range ft.threads {
		th.stop = true
		ops += th.ops
	}
	dt := (ma.Sim.Now() - ft.t0).Seconds()
	if dt <= 0 {
		return FioResult{}
	}
	return FioResult{IOPS: float64(ops) / dt}
}
