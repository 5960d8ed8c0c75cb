package tenant

import (
	"fmt"

	damncore "github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// VFBase is the IOMMU device id of tenant 0's virtual function; tenant i
// DMAs as device VFBase+i. It sits above the physical devices (NIC = 1,
// NVMe = 2) and keeps every VF within the DAMN IOVA encoding's 7-bit
// device field.
const VFBase = 8

// DevOf maps a tenant id to its virtual function's IOMMU identity.
func DevOf(tenant int) int { return VFBase + tenant }

// State is a tenant's position on the containment ladder.
type State int

const (
	// Healthy: full fair share, capabilities valid.
	Healthy State = iota
	// Throttled: violations crossed the soft threshold; the tenant keeps
	// running at a fraction of its fair share.
	Throttled
	// Quarantined: violations crossed the storm threshold; capabilities
	// revoked, rings drained and fenced, VF domain detached, DAMN
	// generation reclaimed. Re-admitted after probation if it quiets down.
	Quarantined
	// Evicted: the fault budget is exhausted; the tenant stays fenced for
	// the life of the machine.
	Evicted
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Throttled:
		return "throttled"
	case Quarantined:
		return "quarantined"
	case Evicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Transition is one containment-ladder step (instrumentation).
type Transition struct {
	At       sim.Time
	Tenant   int
	From, To State
}

const (
	// maxQuarantines is the fault budget: a tenant needing one more
	// quarantine after this many becomes Evicted.
	maxQuarantines int = 2
	// pollPeriod is the violation-detection tick.
	pollPeriod = 50 * sim.Microsecond
	// violationWindow is how long a violation stays countable.
	violationWindow = 200 * sim.Microsecond
	// throttleThreshold violations in the window move Healthy→Throttled.
	throttleThreshold int = 8
	// stormThreshold violations move any live state →Quarantined.
	stormThreshold int = 32
	// probation is the quarantine length before re-admission is weighed.
	probation = 300 * sim.Microsecond
	// throttleFactor is the fair-share fraction kept while Throttled.
	throttleFactor float64 = 0.25
	// resetTime is the simulated cost of a VF function-level reset.
	resetTime = 20 * sim.Microsecond
)

// Tenant is one virtual function's containment state.
type Tenant struct {
	ID     int
	Dev    int
	Rings  []int
	Weight float64

	state         State
	window        []sim.Time
	lastRecorded  uint64
	lastDenials   uint64
	quarantines   int
	quarantinedAt sim.Time
	probationAt   sim.Time
	busy          bool
}

// State reports the tenant's current ladder position.
func (t *Tenant) State() State { return t.state }

// Quarantines reports how many times the tenant has been quarantined.
func (t *Tenant) Quarantines() int { return t.quarantines }

// Manager owns a machine's tenants: the capability table on the driver's
// fast path, the fair-share pacer on the NIC, per-tenant violation windows
// fed by the IOMMU's per-device fault attribution (and, when a recovery
// supervisor is attached, by its foreign-record forwarding), and the
// containment ladder that quarantines exactly one tenant's rings, domain
// and DAMN generation.
type Manager struct {
	ma    *testbed.Machine
	table *Table
	fair  *FairShare

	tenants []*Tenant
	byDev   map[int]*Tenant
	stop    func()

	// viaSupervisor: fault records arrive through the recovery
	// supervisor's OnForeignRecord hook (the IOMMU ring is
	// single-consumer); the poll then skips its own recorded-count
	// harvest to avoid double counting.
	viaSupervisor bool

	// Evidence.
	Transitions   []Transition
	Quarantines   uint64
	Evictions     uint64
	Throttles     uint64
	ReleasedPages int64
	PinnedChunks  int

	quarC  *stats.Counter
	evictC *stats.Counter
	throtC *stats.Counter
}

// Attach wires a tenant manager to a machine: installs the capability gate
// on the driver, the fair-share pacer on the NIC, and arms the violation
// poll. The machine behaves identically until AddTenant assigns rings.
func Attach(ma *testbed.Machine) *Manager {
	rings := ma.NIC.Cfg.Rings
	m := &Manager{ma: ma, byDev: map[int]*Tenant{}}
	m.table = NewTable(rings)
	m.table.SetStats(ma.Stats)
	// The admission ceiling is the NIC's aggregate DMA budget: PCIeGbps is
	// per direction and each tenant's bucket is debited for both RX and TX
	// bytes, so the shared ceiling is twice the per-direction rate (the
	// same aggregation the NIC's own PCIe fluid resource applies).
	m.fair = NewFairShare(rings, 2*ma.NIC.Cfg.PCIeGbps*1e9/8, throttleFactor)
	ma.Driver.SetCapGate(m.table)
	ma.NIC.SetAdmission(m.fair)
	m.quarC = ma.Stats.Counter("tenant", "quarantines")
	m.evictC = ma.Stats.Counter("tenant", "evictions")
	m.throtC = ma.Stats.Counter("tenant", "throttles")
	m.stop = ma.Sim.Every(pollPeriod, m.poll)
	return m
}

// Stop disarms the violation poll (drain-to-idle runs).
func (m *Manager) Stop() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

// Table exposes the capability table (attack simulation and tests).
func (m *Manager) Table() *Table { return m.table }

// Fair exposes the fair-share pacer.
func (m *Manager) Fair() *FairShare { return m.fair }

// TenantByID returns a registered tenant, or nil.
func (m *Manager) TenantByID(id int) *Tenant {
	return m.byDev[DevOf(id)]
}

// AddTenant carves a tenant out of the machine: a fresh IOMMU domain for
// its virtual function (passthrough iff the physical function runs
// passthrough — iommu-off protects nobody, tenants included), ring
// ownership re-bound to the VF's DMA identity, a granted capability on
// each ring, and a weighted slice of the PCIe ceiling. Rings must be
// disjoint across tenants.
func (m *Manager) AddTenant(id int, weight float64, rings []int) (*Tenant, error) {
	if m.TenantByID(id) != nil {
		return nil, fmt.Errorf("tenant: id %d already registered", id)
	}
	dev := DevOf(id)
	for _, r := range rings {
		if r < 0 || r >= m.ma.NIC.Cfg.Rings {
			return nil, fmt.Errorf("tenant: ring %d out of range", r)
		}
		if m.table.ringOwner[r] >= 0 {
			return nil, fmt.Errorf("tenant: ring %d already owned by tenant %d", r, m.table.ringOwner[r])
		}
	}
	dom := m.ma.IOMMU.AttachDevice(dev)
	if pf := m.ma.IOMMU.Domain(testbed.NICDeviceID); pf != nil && pf.Passthrough {
		dom.Passthrough = true
	}
	t := &Tenant{ID: id, Dev: dev, Rings: append([]int(nil), rings...), Weight: weight}
	m.table.Register(id)
	for _, r := range rings {
		m.table.AssignRing(r, id)
		if err := m.ma.NIC.BindRingDevice(r, dev); err != nil {
			return nil, err
		}
		m.ma.Driver.SetRingTenant(r, id)
	}
	m.fair.AddTenant(id, weight, rings, m.ma.Sim.Now())
	t.lastRecorded, _, _ = m.ma.IOMMU.DeviceFaultStats(dev)
	m.tenants = append(m.tenants, t)
	m.byDev[dev] = t
	return t, nil
}

// BindSupervisor routes the recovery supervisor's unclaimed fault records
// (tenant VFs are not supervisor-managed devices) into the violation
// windows. The supervisor owns the single-consumer fault-record ring; set
// its OnForeignRecord to the returned ingest function:
//
//	sup.OnForeignRecord = mgr.BindSupervisor()
func (m *Manager) BindSupervisor() func(rec iommu.FaultRecord) {
	m.viaSupervisor = true
	return func(rec iommu.FaultRecord) {
		if t := m.byDev[rec.Dev]; t != nil && t.state != Evicted {
			t.window = append(t.window, m.ma.Sim.Now())
		}
	}
}

// poll is the detection tick: harvest per-tenant violation signals
// (fault records attributed to the VF, capability denials), age windows,
// and walk the ladder. Tenants are visited in registration order so the
// event stream is deterministic.
func (m *Manager) poll() {
	now := m.ma.Sim.Now()
	for _, t := range m.tenants {
		if t.state == Evicted || t.busy {
			continue
		}
		if !m.viaSupervisor {
			recorded, _, _ := m.ma.IOMMU.DeviceFaultStats(t.Dev)
			for i := t.lastRecorded; i < recorded; i++ {
				t.window = append(t.window, now)
			}
			t.lastRecorded = recorded
		}
		denials := m.table.DenialsFor(t.ID)
		for i := t.lastDenials; i < denials; i++ {
			t.window = append(t.window, now)
		}
		t.lastDenials = denials
		// Age the window.
		keep := t.window[:0]
		for _, at := range t.window {
			if now-at <= violationWindow {
				keep = append(keep, at)
			}
		}
		t.window = keep
		v := len(t.window)
		switch t.state {
		case Healthy:
			if v >= stormThreshold {
				m.quarantine(t)
			} else if v >= throttleThreshold {
				m.setState(t, Throttled)
				m.Throttles++
				m.throtC.Inc()
				m.fair.Throttle(t.ID, true)
			}
		case Throttled:
			if v >= stormThreshold {
				m.quarantine(t)
			} else if v == 0 {
				m.setState(t, Healthy)
				m.fair.Throttle(t.ID, false)
			}
		case Quarantined:
			if now >= t.probationAt {
				if v > 0 {
					// Still hostile through its own quarantine (DMA
					// probes from a detached function keep faulting):
					// spend another quarantine or run out of budget.
					if t.quarantines >= maxQuarantines {
						m.evict(t)
					} else {
						m.quarantine(t)
					}
				} else {
					m.readmit(t)
				}
			}
		}
	}
}

func (m *Manager) setState(t *Tenant, s State) {
	if t.state == s {
		return
	}
	m.Transitions = append(m.Transitions, Transition{At: m.ma.Sim.Now(), Tenant: t.ID, From: t.state, To: s})
	t.state = s
}

// quarantine contains one tenant with the recovery discipline, scoped to
// its slice of the machine: revoke capabilities (the fast path starts
// denying immediately), drain and fence only its rings while its domain is
// still attached (legacy unmaps must succeed so IOVA slots recycle), reset
// the VF, detach its domain, flush the IOTLB of the dead domain, and
// reclaim only its DAMN generation. Neighbours' rings, domains, caches and
// in-flight completions are untouched.
func (m *Manager) quarantine(t *Tenant) {
	t.busy = true
	m.setState(t, Quarantined)
	t.quarantinedAt = m.ma.Sim.Now()
	t.quarantines++
	m.Quarantines++
	m.quarC.Inc()
	m.table.Revoke(t.ID)
	m.ma.Cores[0].Submit(true, func(task *sim.Task) {
		m.ma.Driver.QuarantineDrainRings(task, t.Rings)
		m.ma.DMA.ResetDevice(task, t.Dev)
		m.ma.IOMMU.DetachDevice(t.Dev)
		if err := m.ma.IOMMU.InvQ().Submit(iommu.Command{Kind: iommu.InvDomain, Dev: t.Dev}); err == nil {
			m.ma.IOMMU.InvQ().DrainRetry(task, m.ma.Model.ITETimeout)
		}
		if m.ma.Damn != nil {
			released, pinned := m.ma.Damn.ReleaseDevice(damncore.Ctx{C: task}, t.Dev)
			m.ReleasedPages += released
			m.PinnedChunks = pinned
		}
		task.ChargeTime(resetTime)
		t.window = t.window[:0]
		t.lastRecorded, _, _ = m.ma.IOMMU.DeviceFaultStats(t.Dev)
		t.lastDenials = m.table.DenialsFor(t.ID)
		t.probationAt = m.ma.Sim.Now() + probation
		t.busy = false
	})
}

// readmit lifts a quarantine after a clean probation: fresh domain, fresh
// capabilities, rings refilled, full fair share restored.
func (m *Manager) readmit(t *Tenant) {
	t.busy = true
	m.ma.Cores[0].Submit(true, func(task *sim.Task) {
		dom := m.ma.IOMMU.AttachDevice(t.Dev)
		if pf := m.ma.IOMMU.Domain(testbed.NICDeviceID); pf != nil && pf.Passthrough {
			dom.Passthrough = true
		}
		for _, r := range t.Rings {
			m.table.AssignRing(r, t.ID)
		}
		if err := m.ma.Driver.ReinitRings(task, t.Rings); err != nil {
			// Refill failures leave shortfalls the watchdog restores; the
			// tenant is still re-admitted.
			_ = err
		}
		m.fair.Throttle(t.ID, false)
		m.setState(t, Healthy)
		t.window = t.window[:0]
		t.lastRecorded, _, _ = m.ma.IOMMU.DeviceFaultStats(t.Dev)
		t.lastDenials = m.table.DenialsFor(t.ID)
		t.busy = false
	})
}

// evict retires a tenant permanently: rings stay fenced, the domain stays
// detached, capabilities stay revoked. Terminal.
func (m *Manager) evict(t *Tenant) {
	m.setState(t, Evicted)
	m.Evictions++
	m.evictC.Inc()
}
