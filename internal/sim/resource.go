package sim

// SpinLock models a contended kernel spinlock in simulated time using a
// FIFO fluid approximation: an acquirer that arrives while the lock is held
// waits until the current backlog of holders drains. Wait time is charged
// to the acquiring task as busy (spinning) CPU, which is how Linux's
// invalidation-queue lock burns cycles under strict IOMMU protection
// (§4.1: "the contended lock protecting the invalidation queue").
type SpinLock struct {
	freeAt Time

	// Utilization window (see Utilization).
	winStart Time
	winBusy  Time
	rho      float64

	// Stats.
	Acquisitions uint64
	ContendedFor Time // total time spent waiting
	HeldFor      Time // total time the lock was held
}

// Lock acquires the lock on behalf of task t, holds it for holdCycles
// (converted at the task core's clock), and releases it. The task is
// charged both the spin-wait and the hold time.
func (l *SpinLock) Lock(t *Task, holdCycles float64) {
	hold := t.core.CyclesToTime(holdCycles)
	l.LockFor(t, hold)
}

// LockFor is Lock with an explicit hold duration.
func (l *SpinLock) LockFor(t *Task, hold Time) {
	now := t.Now()
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	wait := start - now
	if wait > 0 {
		t.StallUntil(start)
		l.ContendedFor += wait
	}
	t.ChargeTime(hold)
	l.freeAt = start + hold
	l.HeldFor += hold
	l.winBusy += hold
	l.Acquisitions++
}

// Utilization returns the lock's recent busy fraction, computed over
// rolling ~50 us windows. Callers use it to model contention-dependent
// hold-time inflation (cache-line bouncing): handing a contended lock
// between sockets costs far more than re-acquiring a warm one.
func (l *SpinLock) Utilization(now Time) float64 {
	l.roll(now)
	return l.rho
}

const spinLockWindow = 50 * Microsecond

func (l *SpinLock) roll(now Time) {
	if l.winStart == 0 && l.winBusy == 0 && l.rho == 0 {
		l.winStart = now
		return
	}
	if now < l.winStart+spinLockWindow {
		return
	}
	span := now - l.winStart
	if span <= 0 {
		return
	}
	l.rho = float64(l.winBusy) / float64(span)
	if l.rho > 1 {
		l.rho = 1
	}
	l.winBusy = 0
	l.winStart = now
}

// FluidResource models a bandwidth-limited shared resource (the memory
// controller, a NIC port's wire, the PCIe link) as a single fluid server:
// work arrives in units (bytes), drains at Rate units per second, and
// arrivals queue FIFO. Backlog tells producers (the NIC model) how far the
// resource has fallen behind, which is the throttling signal the paper
// describes for shadow buffers ("the OS throttles its network I/O rate
// because the NIC does not empty its rings sufficiently fast", §6.1).
type FluidResource struct {
	Name string
	// Rate is capacity in units per second.
	Rate float64

	freeAt Time
	used   float64 // total units served
}

// NewFluidResource creates a resource with the given capacity.
func NewFluidResource(name string, rate float64) *FluidResource {
	if rate <= 0 {
		panic("sim: fluid resource rate must be positive")
	}
	return &FluidResource{Name: name, Rate: rate}
}

// Reserve enqueues units of work at time now and returns the time the
// transfer completes.
func (r *FluidResource) Reserve(now Time, units float64) Time {
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	d := Time(units / r.Rate * float64(Second))
	r.freeAt = start + d
	r.used += units
	return r.freeAt
}

// Backlog returns how far the resource's queue extends past now.
func (r *FluidResource) Backlog(now Time) Time {
	if r.freeAt <= now {
		return 0
	}
	return r.freeAt - now
}

// Used returns the total units served so far (for bandwidth reporting).
func (r *FluidResource) Used() float64 { return r.used }
