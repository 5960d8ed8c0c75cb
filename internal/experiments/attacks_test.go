package experiments

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// TestAttackMatrixGolden pins every (scheme, scenario) verdict and detail of
// the attack matrix at seed 1 and fault seed 1, and checks that a parallel
// run reproduces the serial rows exactly.
func TestAttackMatrixGolden(t *testing.T) {
	want := []AttackRow{
		{"iommu-off", "arbitrary-read", true, "device DMA-reads a kmalloc'ed secret at its physical address"},
		{"iommu-off", "co-location", true, "device hunts a secret co-located with a mapped network buffer"},
		{"iommu-off", "window-write", true, "device writes a buffer after dma_unmap returned"},
		{"iommu-off", "tocttou-header", true, "device rewrites packet headers after firewall inspection"},
		{"iommu-off", "fault-storm", true, "storm DMAs flowed without detection — no fault records, no containment"},
		{"iommu-off", "tenant-probe", true, "20 cross-tenant probes read the neighbour's memory (attacker evicted)"},
		{"deferred", "arbitrary-read", false, "device DMA-reads a kmalloc'ed secret at its physical address"},
		{"deferred", "co-location", true, "device hunts a secret co-located with a mapped network buffer"},
		{"deferred", "window-write", true, "device writes a buffer after dma_unmap returned"},
		{"deferred", "tocttou-header", true, "device rewrites packet headers after firewall inspection"},
		{"deferred", "fault-storm", false, "storm detected, device quarantined and healed (MTTR 100.0µs)"},
		{"deferred", "tenant-probe", false, "probes blocked (3579 classified), 42 forged caps denied, attacker evicted"},
		{"strict", "arbitrary-read", false, "device DMA-reads a kmalloc'ed secret at its physical address"},
		{"strict", "co-location", true, "device hunts a secret co-located with a mapped network buffer"},
		{"strict", "window-write", false, "device writes a buffer after dma_unmap returned"},
		{"strict", "tocttou-header", false, "device rewrites packet headers after firewall inspection"},
		{"strict", "fault-storm", false, "storm detected, device quarantined and healed (MTTR 100.0µs)"},
		{"strict", "tenant-probe", false, "probes blocked (3099 classified), 65 forged caps denied, attacker evicted"},
		{"shadow", "arbitrary-read", false, "device DMA-reads a kmalloc'ed secret at its physical address"},
		{"shadow", "co-location", false, "device hunts a secret co-located with a mapped network buffer"},
		{"shadow", "window-write", false, "device writes a buffer after dma_unmap returned"},
		{"shadow", "tocttou-header", false, "device rewrites packet headers after firewall inspection"},
		{"shadow", "fault-storm", false, "storm detected, device quarantined and healed (MTTR 100.0µs)"},
		{"shadow", "tenant-probe", false, "probes blocked (3040 classified), 65 forged caps denied, attacker evicted"},
		{"damn", "arbitrary-read", false, "device DMA-reads a kmalloc'ed secret at its physical address"},
		{"damn", "co-location", false, "device hunts a secret co-located with a mapped network buffer"},
		{"damn", "window-write", false, "device writes a buffer after dma_unmap returned"},
		{"damn", "tocttou-header", false, "device rewrites packet headers after firewall inspection"},
		{"damn", "fault-storm", false, "storm detected, device quarantined and healed (MTTR 100.0µs)"},
		{"damn", "tenant-probe", false, "probes blocked (3579 classified), 25 forged caps denied, attacker evicted"},
		{"bypass-raw", "arbitrary-read", true, "device DMA-reads a kmalloc'ed secret at its physical address"},
		{"bypass-raw", "co-location", true, "device hunts a secret co-located with a mapped network buffer"},
		{"bypass-raw", "window-write", true, "device writes a buffer after dma_unmap returned"},
		{"bypass-raw", "tocttou-header", true, "device rewrites packet headers after firewall inspection"},
		{"bypass-raw", "fault-storm", true, "storm DMAs flowed without detection — no fault records, no containment"},
		{"bypass-raw", "pool-escape", true, "app's DMA identity reads a kernel secret outside its registered pool"},
		{"bypass-raw", "pool-window", true, "device rewrites a pool buffer after the app consumed it"},
		{"bypass-prot", "arbitrary-read", false, "device DMA-reads a kmalloc'ed secret at its physical address"},
		{"bypass-prot", "co-location", true, "device hunts a secret co-located with a mapped network buffer"},
		{"bypass-prot", "window-write", true, "device writes a buffer after dma_unmap returned"},
		{"bypass-prot", "tocttou-header", true, "device rewrites packet headers after firewall inspection"},
		{"bypass-prot", "fault-storm", false, "storm detected, device quarantined and healed (MTTR 100.0µs)"},
		{"bypass-prot", "pool-escape", false, "probe outside the registered pool faulted (1 hugepages mapped, nothing else)"},
		{"bypass-prot", "pool-window", true, "device rewrites a pool buffer after the app consumed it"},
	}
	serial, err := Attacks(Options{Quick: true, Seed: 1, FaultSeed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(serial), len(want), RenderAttacks(serial))
	}
	for i, w := range want {
		if serial[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, serial[i], w)
		}
	}
	par, err := Attacks(Options{Quick: true, Seed: 1, FaultSeed: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel attack rows diverge from serial:\nserial   %+v\nparallel %+v", serial, par)
	}
}

// TestAttackVerdictsSurviveFaults arms the uniform fault plane — link drop
// and corruption included — on every attacked machine: a protection verdict
// is a property of the translation scheme, so no row may flip.
func TestAttackVerdictsSurviveFaults(t *testing.T) {
	clean, err := Attacks(Options{Quick: true, Seed: 1, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Attacks(Options{Quick: true, Seed: 1, FaultRate: 0.01, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty) != len(clean) {
		t.Fatalf("%d rows under faults, want %d", len(faulty), len(clean))
	}
	for i, c := range clean {
		if f := faulty[i]; f.Scheme != c.Scheme || f.Scenario != c.Scenario || f.Landed != c.Landed {
			t.Errorf("%s/%s: landed %v under faults, %v without (%s)", f.Scheme, f.Scenario, f.Landed, c.Landed, f.Detail)
		}
	}
}

// TestSetupPoolMustRun keeps the pool scenarios honest: when the driver's
// core is still busy, Setup cannot run before the attack starts, and
// setupPool must fail instead of handing back an empty domain to probe.
func TestSetupPoolMustRun(t *testing.T) {
	ma, err := testbed.NewMachine(attackCfg(quick, testbed.SchemeBypassProt))
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	ma.NIC.RingCore(0).Submit(false, func(task *sim.Task) { task.ChargeTime(sim.Millisecond) })
	ma.Sim.Run(ma.Sim.Now())
	d, err := setupPool(ma)
	if err == nil {
		t.Fatalf("setupPool succeeded on a busy core with %d pool hugepages", len(d.PoolChunks()))
	}
}
