// Package tenant adds SR-IOV-style multi-tenancy to the protected NIC:
// each tenant owns a virtual function (its own IOMMU domain and DAMN
// cache generation), a partition of the RSS rings and their bound cores,
// an epoch-stamped revocable capability gating every buffer handoff on the
// TX/RX fast path, and a weighted fair share of the PCIe/memory-bandwidth
// ceiling. A misbehaving tenant — forged or revoked capabilities, DMA
// probes into a sibling's IOVA range, a fault storm — walks the
// containment ladder Healthy → Throttled → Quarantined → Evicted, and
// every containment step touches only that tenant's rings, domain and
// allocator generation: the blast radius is one tenant.
//
// The design follows the capability systems the related work builds for
// kernel-bypass I/O (CAPIO; Beadle/Scott/Criswell): the kernel checks a
// revocable capability at the boundary instead of trusting the
// application, and revocation is a cheap epoch bump rather than a sweep
// of outstanding references.
package tenant

import (
	"fmt"

	"github.com/asplos18/damn/internal/stats"
)

// Handle is one tenant's capability for buffer handoff on its rings: the
// tenant id plus the epoch it was granted under. Revocation bumps the
// tenant's epoch, so every outstanding handle goes stale at once — O(1)
// revocation with no sweep, and validation is two integer compares on the
// per-packet path.
type Handle struct {
	Tenant int
	Epoch  uint32
}

// Table is the kernel's capability table: the current epoch per tenant,
// which tenant owns each ring, and the handle each ring currently
// presents. It implements netstack.CapGate; CheckRing is called by the
// driver before every map and unmap on a tenant-owned ring and must stay
// allocation-free (the per-tenant denial views are registered when the
// tenant is, never on the check path).
type Table struct {
	epochs    []uint32
	ringOwner []int
	presented []Handle

	Checks      uint64
	Denials     uint64
	Revocations uint64
	// denialsBy attributes denials to the ring's owning tenant.
	denialsBy []uint64

	// reg receives the per-tenant denial views.
	reg *stats.Registry
}

// NewTable builds a capability table for a NIC with the given ring count.
// Rings start unowned: CheckRing on an unowned ring always passes, so a
// machine with a table installed but no tenants behaves exactly like one
// without.
func NewTable(rings int) *Table {
	t := &Table{
		ringOwner: make([]int, rings),
		presented: make([]Handle, rings),
	}
	for i := range t.ringOwner {
		t.ringOwner[i] = -1
	}
	return t
}

// SetStats attaches a metrics registry: views of the aggregate capability
// counts (tenant/cap_checks, cap_denials, cap_revocations). Per-tenant
// denial views are added as tenants register.
func (t *Table) SetStats(r *stats.Registry) {
	t.reg = r
	for name, count := range map[string]*uint64{
		"cap_checks":      &t.Checks,
		"cap_denials":     &t.Denials,
		"cap_revocations": &t.Revocations,
	} {
		r.CounterFunc("tenant", name, func() uint64 { return *count })
	}
}

// Register sizes the table for a tenant id, one slot at a time, and adds
// each new slot's denial view (tenant/cap_denials_t<id>), keeping the deny
// path free of registry work.
func (t *Table) Register(tenant int) {
	for tenant >= len(t.epochs) {
		id := len(t.epochs)
		t.epochs = append(t.epochs, 0)
		t.denialsBy = append(t.denialsBy, 0)
		t.reg.CounterFunc("tenant", fmt.Sprintf("cap_denials_t%d", id), func() uint64 {
			return t.denialsBy[id]
		})
	}
}

// Grant issues a fresh capability for a tenant at its current epoch.
func (t *Table) Grant(tenant int) Handle {
	t.Register(tenant)
	return Handle{Tenant: tenant, Epoch: t.epochs[tenant]}
}

// AssignRing gives a tenant ownership of a ring and presents a freshly
// granted handle on it. tenant < 0 releases the ring (unowned rings are
// ungated).
func (t *Table) AssignRing(ring, tenant int) {
	if ring < 0 || ring >= len(t.ringOwner) {
		return
	}
	t.ringOwner[ring] = tenant
	if tenant < 0 {
		t.presented[ring] = Handle{}
		return
	}
	t.presented[ring] = t.Grant(tenant)
}

// Present replaces the handle a ring presents — the attack surface: a
// compromised tenant presenting a stale (revoked) or forged (wrong-tenant)
// handle is exactly what CheckRing denies.
func (t *Table) Present(ring int, h Handle) {
	if ring < 0 || ring >= len(t.presented) {
		return
	}
	t.presented[ring] = h
}

// Revoke invalidates every outstanding capability of a tenant by bumping
// its epoch. Handles already presented on rings stay in place and simply
// stop validating — revocation needs no per-ring sweep.
func (t *Table) Revoke(tenant int) {
	if tenant < 0 || tenant >= len(t.epochs) {
		return
	}
	t.epochs[tenant]++
	t.Revocations++
}

// CheckRing validates the capability a ring currently presents against its
// owner's epoch. Unowned rings pass unconditionally (and uncounted — a
// tenancy-free machine's stats stay byte-identical). This is the
// netstack.CapGate fast path: two loads, two compares, count bumps.
func (t *Table) CheckRing(ring int) bool {
	owner := t.ringOwner[ring]
	if owner < 0 {
		return true
	}
	t.Checks++
	h := t.presented[ring]
	if h.Tenant == owner && h.Epoch == t.epochs[owner] {
		return true
	}
	t.Denials++
	t.denialsBy[owner]++
	return false
}

// DenialsFor reports capability denials attributed to one tenant.
func (t *Table) DenialsFor(tenant int) uint64 {
	if tenant < 0 || tenant >= len(t.denialsBy) {
		return 0
	}
	return t.denialsBy[tenant]
}
