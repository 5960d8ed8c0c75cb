package workloads

import (
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/tenant"
	"github.com/asplos18/damn/internal/testbed"
)

// runTenants runs cfg on a fresh machine of scheme with two cores per
// tenant and a zero-rate fault plane rooted at seed.
func runTenants(t *testing.T, scheme testbed.Scheme, seed int64, cfg TenantsConfig) TenantsResult {
	t.Helper()
	ma := faultMachine(t, scheme, 2*cfg.Tenants, seed, nil)
	defer ma.Close()
	cfg.Machine = ma
	res, err := RunTenants(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTenantsClean: with no attacker, every tenant gets an equal share —
// Jain's index near 1 — and conservation holds.
func TestTenantsClean(t *testing.T) {
	res := runTenants(t, testbed.SchemeDAMN, 1, TenantsConfig{
		Tenants: 4,
		Warmup:  2 * sim.Millisecond, Measure: 5 * sim.Millisecond,
	})
	if res.AggGbps <= 0 {
		t.Fatalf("no goodput: %+v", res)
	}
	if res.JainIndex < 0.99 {
		t.Errorf("clean-phase Jain index = %.4f, want >= 0.99 (per-tenant %v)",
			res.JainIndex, res.CleanGbps)
	}
	if res.DamnLiveChunks < 0 {
		t.Error("DAMN audit did not run on the damn scheme")
	}
}

// TestTenantsBlastRadius is the blast-radius gate: one compromised tenant
// (forged capabilities + neighbour DMA probes + a VF-filtered fault storm)
// must be contained while every sibling keeps >= 95% of its clean goodput,
// with the attacker's DAMN generation reclaimed audit-clean and zero fault
// records attributed to the victims.
func TestTenantsBlastRadius(t *testing.T) {
	res := runTenants(t, testbed.SchemeDAMN, 1, TenantsConfig{
		Tenants: 4,
		Warmup:  2 * sim.Millisecond, Measure: 5 * sim.Millisecond,
		Attack: true, AttackLen: 5 * sim.Millisecond,
	})
	if !res.Attacked {
		t.Fatal("attack phase did not run")
	}
	if res.VictimRatioMin < 0.95 {
		t.Errorf("victim goodput dropped to %.3f of clean (want >= 0.95); victims %v vs clean %v",
			res.VictimRatioMin, res.VictimGbps, res.CleanGbps[1:])
	}
	if res.AttackerState != tenant.Quarantined.String() && res.AttackerState != tenant.Evicted.String() {
		t.Errorf("attacker state = %s, want quarantined or evicted", res.AttackerState)
	}
	if res.ProbesBlocked == 0 {
		t.Error("no neighbour probes were blocked/classified")
	}
	if res.ProbesLanded != 0 {
		t.Errorf("%d neighbour probes landed through per-tenant domains", res.ProbesLanded)
	}
	if res.CapDenials == 0 {
		t.Error("forged capabilities were never denied")
	}
	if res.CrossTenantRecs != 0 {
		t.Errorf("%d fault records attributed to victim VFs, want 0", res.CrossTenantRecs)
	}
	if res.ReleasedPages == 0 {
		t.Error("attacker's DAMN generation was not reclaimed")
	}
	if res.DamnLiveChunks < 0 {
		t.Error("DAMN audit did not run")
	}
}

// TestTenantsFaultStormIsolation fault-storms one tenant through the
// shared fault plane (device-filtered uniform rate) and checks neighbours
// see none of it: their goodput holds and no records land on their VFs.
func TestTenantsFaultStormIsolation(t *testing.T) {
	res := runTenants(t, testbed.SchemeDAMN, 7, TenantsConfig{
		Tenants: 2,
		Warmup:  2 * sim.Millisecond, Measure: 4 * sim.Millisecond,
		Attack: true, AttackLen: 4 * sim.Millisecond,
	})
	if res.CrossTenantRecs != 0 {
		t.Errorf("fault storm leaked %d records onto the neighbour", res.CrossTenantRecs)
	}
	if res.VictimRatioMin < 0.95 {
		t.Errorf("neighbour goodput ratio %.3f under storm, want >= 0.95", res.VictimRatioMin)
	}
}

// TestTenantsSeedReplay: the whole multi-tenant trajectory — including the
// attack — is a pure function of (scheme, tenants, fault seed).
func TestTenantsSeedReplay(t *testing.T) {
	run := func() TenantsResult {
		return runTenants(t, testbed.SchemeDAMN, 3, TenantsConfig{
			Tenants: 2,
			Warmup:  1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
			Attack: true, AttackLen: 3 * sim.Millisecond,
		})
	}
	a, b := run(), run()
	if a.ScheduleDigest != b.ScheduleDigest {
		t.Errorf("fault schedule digests differ: %x vs %x", a.ScheduleDigest, b.ScheduleDigest)
	}
	if a.AggGbps != b.AggGbps || a.VictimRatioMin != b.VictimRatioMin ||
		a.CapDenials != b.CapDenials || a.ProbesBlocked != b.ProbesBlocked {
		t.Errorf("replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestTenantsOffSchemeProbesLand documents the counterfactual: with the
// IOMMU off, per-tenant domains are passthrough and neighbour probes land.
func TestTenantsOffSchemeProbesLand(t *testing.T) {
	res := runTenants(t, testbed.SchemeOff, 1, TenantsConfig{
		Tenants: 2,
		Warmup:  1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
		Attack: true, AttackLen: 2 * sim.Millisecond,
	})
	if res.ProbesLanded == 0 {
		t.Error("iommu-off probes were all blocked — passthrough not propagated to tenant VFs")
	}
}

// TestTenancyFreeMachineUnchanged pins the zero-cost claim: a machine with
// no tenant manager attached must not even have the tenant counters, and
// the capability gate must be absent from the driver.
func TestTenancyFreeMachineUnchanged(t *testing.T) {
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: testbed.SchemeDAMN, Cores: 2,
		Faults: &faults.Config{Seed: 1, Rates: map[faults.Kind]float64{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	ma.Sim.Run(2 * sim.Millisecond)
	for name := range ma.Stats.Snapshot().Counters {
		if len(name) >= 7 && name[:7] == "tenant/" {
			t.Errorf("tenancy-free machine grew tenant counter %q", name)
		}
	}
}
