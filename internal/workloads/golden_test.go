package workloads

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// goldenWindow is an odd window length: with it, and with three cores,
// reordering any rate formula's arithmetic changes the last bit of a
// pinned result.
const goldenWindow = 3*sim.Millisecond + 987651*sim.Picosecond

// goldenMachine builds a small seeded three-core machine that is released
// when the test ends.
func goldenMachine(t *testing.T, cfg testbed.MachineConfig) *testbed.Machine {
	t.Helper()
	cfg.Seed, cfg.Cores = 1, 3
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 256 << 20
	}
	if cfg.RingSize == 0 && !cfg.NoNIC {
		cfg.RingSize = 32
	}
	ma, err := testbed.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ma.Close)
	return ma
}

// TestRunnerResultsGolden pins the exact result of every runner that
// measures over a window, on small machines with windows of a few ms. The
// constants were captured before the runners' snapshot/diff code moved
// into testbed.Window; any difference, even one ulp, means a rate formula
// or the simulation changed. Rendered figure text rounds floats, so it
// cannot catch this, and the perfbench digests cover only the netperf,
// memcached and bypass runners.
func TestRunnerResultsGolden(t *testing.T) {
	for _, g := range []struct {
		name string
		run  func(t *testing.T) (any, error)
		want any
	}{
		{"netperf", func(t *testing.T) (any, error) {
			ma := goldenMachine(t, testbed.MachineConfig{Scheme: testbed.SchemeShadow})
			return RunNetperf(NetperfConfig{
				Machine: ma, RXCores: []int{0}, TXCores: []int{1, 2}, Wakeup: true, ExtraCycles: 500,
				Warmup: 1 * sim.Millisecond, Duration: goldenWindow,
			})
		}, NetperfResult{Scheme: "shadow", RXGbps: 19.916387186759536, TXGbps: 61.496213067889094,
			TotalGbps: 81.41260025464862, CPUUtil: 1.038796040683874, MemBWGBps: 37.6533276177756}},

		{"memcached", func(t *testing.T) (any, error) {
			ma := goldenMachine(t, testbed.MachineConfig{Scheme: testbed.SchemeStrict})
			return RunMemcached(MemcachedConfig{
				Machine: ma, ValueBytes: 64 << 10,
				Warmup: 1 * sim.Millisecond, Duration: goldenWindow,
			})
		}, MemcachedResult{Scheme: "strict", TPS: 59980.25348088978, CPUUtil: 0.9517991235479429}},

		{"bypass", func(t *testing.T) (any, error) {
			ma := goldenMachine(t, testbed.MachineConfig{Scheme: testbed.SchemeBypassProt})
			return RunBypass(BypassConfig{
				Machine: ma, Rings: 3,
				Warmup: 1 * sim.Millisecond, Duration: goldenWindow,
			})
		}, BypassResult{Scheme: "bypass-prot", RXGbps: 106.04602651195648, CPUUtil: 1.0000485447960057,
			CPUPerMBus: 226.32781127728583, IdleBurnCores: 3,
			MemBWGBps: 6.62787665699728, Polls: 0x22d7, Harvested: 0x327, Doorbells: 0x32a}},

		{"fio", func(t *testing.T) (any, error) {
			ma := goldenMachine(t, testbed.MachineConfig{Scheme: testbed.SchemeStrict, MemBytes: 128 << 20, NoNIC: true})
			nvme := device.NewNVMe(ma.Sim, ma.IOMMU, ma.Model, ma.Cores, device.DefaultP3700(testbed.NVMeDeviceID))
			return RunFio(FioConfig{
				Machine: ma, NVMe: nvme, BlockSize: 16384,
				Warmup: 1 * sim.Millisecond, Duration: goldenWindow,
			})
		}, FioResult{Scheme: "strict", BlockSize: 16384, IOPS: 209930.88718311422,
			GiBps: 3.2032911252306246, CPUUtil: 0.20478286422201167}},

		{"scaling", func(t *testing.T) (any, error) {
			ma := goldenMachine(t, testbed.MachineConfig{Scheme: testbed.SchemeDAMN})
			return RunScaling(ScalingConfig{Machine: ma, Warmup: 1 * sim.Millisecond, Duration: goldenWindow})
		}, ScalingResult{Scheme: "damn", Cores: 3, RXGbps: 105.87132136119544, CPUUtil: 0.541037370522211}},

		{"loss", func(t *testing.T) (any, error) {
			ma := lossMachine(t, testbed.SchemeDAMN, 1, 5)
			t.Cleanup(ma.Close)
			return RunLoss(LossConfig{Machine: ma, Warmup: 2 * sim.Millisecond, Duration: goldenWindow})
		}, LossResult{Scheme: "damn", GoodputGbps: 99.58193593379768, WireGbps: 105.34720590891227,
			RetxPct: 1.3114754098360655, CPUPerMB: 153.7678566112853, Sent: 0x25a,
			Retransmits: 0x8, FastRetx: 0x8, AcksSent: 0x24f, CsumDrops: 0x2, InjectedTotal: 0xe,
			ScheduleDigest: 0x931552347c8d9ae7, DamnLiveChunks: 195}},

		{"recovery", func(t *testing.T) (any, error) {
			ma := faultMachine(t, testbed.SchemeDAMN, 4, 7, nil)
			t.Cleanup(ma.Close)
			return RunRecovery(RecoveryConfig{
				Machine: ma,
				Warmup:  2 * sim.Millisecond, Steady: goldenWindow, Measure: goldenWindow,
			})
		}, RecoveryResult{Scheme: "damn", SteadyGbps: 197.41682035998485, StormGbps: 109.838336,
			RecoveredGbps: 200.91092337520584, DetectPS: 85561050, MTTRPS: 100000000,
			FinalState: "healthy", Storms: 0x3, Quarantines: 0x3, Resets: 0x3,
			ReleasedPages: 14304, PinnedChunks: 14, DamnLiveChunks: 489, FaultRecords: 0x923,
			FaultOverflows: 0xec7, ScheduleDigest: 0x8c1fa5d042556575}},

		{"tenants", func(t *testing.T) (any, error) {
			ma := faultMachine(t, testbed.SchemeDAMN, 4, 3, nil)
			t.Cleanup(ma.Close)
			return RunTenants(TenantsConfig{
				Machine: ma, Tenants: 2, Attack: true,
				Warmup: 1 * sim.Millisecond, Measure: goldenWindow, AttackLen: goldenWindow,
			})
		}, TenantsResult{Scheme: "damn", Tenants: 2,
			CleanGbps: []float64{100.45546168760292, 100.45546168760292}, AggGbps: 200.91092337520584,
			JainIndex: 1, FairDelaysPS: []int64{554956, 554956},
			Attacked: true, VictimGbps: []float64{114.08246344696471},
			VictimRatioMin: 1.1356521739130434, VictimRatioMean: 1.1356521739130434,
			AttackerState: "evicted", AttackerQuar: 2, Evictions: 0x1, ProbesBlocked: 0xdf3,
			CapChecks: 0xd9c, CapDenials: 0x13, CapRevocations: 0x2, ReleasedPages: 1568,
			PinnedChunks: 20, RxWrongCoreByTen: []uint64{0x0, 0x0}, DamnLiveChunks: 162,
			ScheduleDigest: 0x716eb0ee06236ecd}},
	} {
		t.Run(g.name, func(t *testing.T) {
			got, err := g.run(t)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, g.want) {
				t.Errorf("result changed:\n got %#v\nwant %#v", got, g.want)
			}
		})
	}
}
