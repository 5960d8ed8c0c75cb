package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// tenantCounts is the tenant-count axis of the tenants figure.
var tenantCounts = []int{1, 2, 4, 8}

// Tenants measures multi-tenant isolation per scheme × tenant count: clean
// aggregate goodput and Jain's fairness index with N tenants sharing one
// protected NIC, then — for N > 1 — the blast radius of one compromised
// tenant (forged capabilities, neighbour DMA probes, a VF-filtered fault
// storm) on its neighbours while the containment ladder quarantines it.
// One machine per (scheme, count), with two cores per tenant and a
// zero-rate fault plane rooted at FaultSeed, fanned out by the parallel
// runner; byte-identical output for any worker count.
func Tenants(opts Options) ([]workloads.TenantsResult, error) {
	var base workloads.TenantsConfig
	if opts.Quick {
		base.Warmup = 2 * sim.Millisecond
		base.Measure = 4 * sim.Millisecond
		base.AttackLen = 4 * sim.Millisecond
	}
	type job struct {
		scheme testbed.Scheme
		n      int
	}
	var jobs []job
	for _, s := range testbed.AllSchemes {
		for _, n := range tenantCounts {
			jobs = append(jobs, job{s, n})
		}
	}
	return runJobs(opts, len(jobs), func(i int, opts Options) (workloads.TenantsResult, error) {
		scheme, n := jobs[i].scheme, jobs[i].n
		res, err := withMachine(opts, fmt.Sprintf("tenants/%s-%d", scheme, n), opts.harnessCfg(scheme, 2*n, 0),
			func(ma *testbed.Machine) (workloads.TenantsResult, error) {
				c := base
				c.Machine, c.Tenants, c.Attack = ma, n, n > 1
				return workloads.RunTenants(c)
			})
		if err != nil {
			return res, fmt.Errorf("tenants %s/%d: %w", scheme, n, err)
		}
		return res, nil
	})
}

// RenderTenants formats the tenants figure: isolation cost (aggregate
// goodput as tenants are added), fairness, and the victim's view of an
// attack — worst neighbour goodput ratio, where the attacker ended up, and
// what the capability gate and per-tenant domains blocked.
func RenderTenants(rows []workloads.TenantsResult) string {
	header := []string{"scheme", "tenants", "agg Gb/s", "Jain", "victim min",
		"attacker", "cap denials", "probes blocked", "probes landed", "reclaimed pages"}
	var cells [][]string
	for _, r := range rows {
		victim, attacker := "-", "-"
		denials, blocked, landed, reclaimed := "-", "-", "-", "-"
		if r.Attacked {
			victim = fmt.Sprintf("%.3f", r.VictimRatioMin)
			attacker = r.AttackerState
			denials = fmt.Sprintf("%d", r.CapDenials)
			blocked = fmt.Sprintf("%d", r.ProbesBlocked)
			landed = fmt.Sprintf("%d", r.ProbesLanded)
			reclaimed = fmt.Sprintf("%d", r.ReleasedPages)
		}
		cells = append(cells, []string{
			r.Scheme, fmt.Sprintf("%d", r.Tenants), f1(r.AggGbps),
			fmt.Sprintf("%.4f", r.JainIndex), victim, attacker,
			denials, blocked, landed, reclaimed,
		})
	}
	return "Tenants — multi-tenant isolation: fairness and one compromised tenant's blast radius\n" +
		RenderTable(header, cells)
}
