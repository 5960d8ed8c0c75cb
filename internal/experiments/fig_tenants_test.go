package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// quickTenants runs a reduced grid (damn scheme only) at quick windows —
// the full 5-scheme × 4-count grid is TestTenantsFigureParallelMatchesSerial
// and `make golden`.
func quickTenants(t *testing.T, n int, attack bool) workloads.TenantsResult {
	t.Helper()
	ma, err := testbed.NewMachine(Options{FaultSeed: 3}.harnessCfg(testbed.SchemeDAMN, 2*n, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	res, err := workloads.RunTenants(workloads.TenantsConfig{
		Machine: ma, Tenants: n,
		Warmup: 2 * sim.Millisecond, Measure: 4 * sim.Millisecond,
		Attack: attack, AttackLen: 4 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTenantsBlastRadiusGate is the PR's acceptance gate: one compromised
// tenant mounting the full attack — forged capabilities, DMA probes into
// sibling IOVA ranges, a fault storm — must be contained while every
// sibling keeps >= 95% of its clean goodput, with the attacker's DAMN
// generation reclaimed and the allocator audit-clean.
func TestTenantsBlastRadiusGate(t *testing.T) {
	res := quickTenants(t, 4, true)
	if res.VictimRatioMin < 0.95 {
		t.Errorf("victim goodput %.3f of clean, want >= 0.95 (victims %v, clean %v)",
			res.VictimRatioMin, res.VictimGbps, res.CleanGbps[1:])
	}
	if res.AttackerState != "quarantined" && res.AttackerState != "evicted" {
		t.Errorf("attacker ended %s, want quarantined or evicted", res.AttackerState)
	}
	if res.ReleasedPages == 0 {
		t.Error("attacker's DAMN generation not reclaimed")
	}
	if res.DamnLiveChunks < 0 {
		t.Error("conservation audit did not run")
	}
	if res.CrossTenantRecs != 0 {
		t.Errorf("%d fault records leaked onto victim VFs, want 0", res.CrossTenantRecs)
	}
	if res.ProbesLanded != 0 {
		t.Errorf("%d probes landed through per-tenant domains, want 0", res.ProbesLanded)
	}
}

// TestTenantsFigureParallelMatchesSerial: the tenants figure must be
// byte-identical for any worker count. The grid is trimmed via Quick and
// exercised at two Parallel values over identical options.
func TestTenantsFigureParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full tenants grid is slow; make test and make race-full run it")
	}
	serial, err := Tenants(Options{Quick: true, FaultSeed: 3, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Tenants(Options{Quick: true, FaultSeed: 3, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("parallel tenants rows diverge from serial")
	}
	if RenderTenants(serial) != RenderTenants(par) {
		t.Error("rendered tenants text differs between serial and parallel")
	}
}

// TestTenantsSeedReplayFigure: two runs of the same (scheme, count, seed)
// datapoint must agree exactly — the figure is a pure function of its
// seeds.
func TestTenantsSeedReplayFigure(t *testing.T) {
	a := quickTenants(t, 2, true)
	b := quickTenants(t, 2, true)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("tenants datapoint replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestTenantsRenderShape: the render includes every scheme and the
// attack-evidence columns.
func TestTenantsRenderShape(t *testing.T) {
	rows := []workloads.TenantsResult{
		{Scheme: "damn", Tenants: 1, AggGbps: 50, JainIndex: 1},
		{Scheme: "damn", Tenants: 4, AggGbps: 100, JainIndex: 0.999,
			Attacked: true, VictimRatioMin: 0.99, AttackerState: "evicted",
			CapDenials: 12, ProbesBlocked: 240, ReleasedPages: 512},
	}
	out := RenderTenants(rows)
	for _, want := range []string{"tenants", "Jain", "victim min", "evicted", "240"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
