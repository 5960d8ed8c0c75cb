// Package recovery implements per-device fault-domain containment and
// automated recovery on top of the simulated testbed. Each supervised
// device is one fault domain: its IOMMU domain, its DMA mappings, its DAMN
// chunks and its driver rings live and die together. The supervisor watches
// the IOMMU's fault-record ring and the driver watchdog's ring shortfalls
// for fault storms, quarantines the offending device (detach the domain,
// drop in-flight DMA), performs a function-level reset (invalidate the
// dead domain's IOTLB entries, tear down and rebuild mappings, reclaim allocator
// state owned by the dead domain) and reinitialises the driver — or parks
// the device as Failed after a bounded number of reset attempts.
//
// Everything is driven by the discrete-event engine: detection runs on a
// polled sim-time window, resets are charged simulated latency, and retry
// backoff is exponential in simulated time — so recovery latencies are
// measurable quantities, deterministic under a fixed fault seed.
package recovery

import (
	"fmt"
	"sort"

	"github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// State is one node of the per-device recovery state machine.
type State int

const (
	// Healthy: the device is attached and passing traffic.
	Healthy State = iota
	// Degraded: faults are arriving above the degrade threshold but below
	// the storm threshold; the device keeps running under observation.
	Degraded
	// Quarantined: the storm threshold tripped — the IOMMU domain is
	// detached, in-flight DMA aborts at the bus, rings are drained.
	Quarantined
	// Resetting: function-level reset in progress (invalidation drain,
	// mapping teardown, allocator reclamation).
	Resetting
	// Reinitializing: domain re-attached, driver rings refilling.
	Reinitializing
	// Failed: recovery abandoned — reset retries exhausted. The device
	// stays detached.
	Failed
)

var stateNames = [...]string{"healthy", "degraded", "quarantined", "resetting", "reinitializing", "failed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

const (
	// maxResets bounds reset attempts per quarantine before Failed.
	maxResets int = 3
	// resetBackoff is the delay before the first reset attempt; it
	// doubles per retry (exponential backoff in simulated time).
	resetBackoff = 100 * sim.Microsecond
	// signalWindow is the sliding sim-time window over which fault signals
	// are counted.
	signalWindow = 200 * sim.Microsecond
	// degradeThreshold is the signal count in signalWindow that moves a
	// Healthy device to Degraded.
	degradeThreshold int = 8
	// stormThreshold is the count that declares a storm and quarantines.
	stormThreshold int = 32
	// pollPeriod is the supervisor's detection period.
	pollPeriod = 50 * sim.Microsecond
	// resetTime is the simulated duration of the function-level reset
	// itself (config-space cycling; PCIe requires 100 ms after FLR, scaled
	// down here like every latency in the model).
	resetTime = 50 * sim.Microsecond
)

// devState is the supervisor's view of one fault domain.
type devState struct {
	dev   int
	drv   *netstack.Driver // nil for devices without a supervised driver
	state State
	// window holds the sim timestamps of recent fault signals.
	window []sim.Time
	// lastShortfall is the watchdog shortfall at the previous poll; the
	// delta is the new-signal count.
	lastShortfall int
	resets        int
	enteredAt     sim.Time
	quarantinedAt sim.Time
	// mttr is the quarantine-to-healthy latency of the last heal.
	mttr       sim.Time
	stormStart sim.Time
	// stateTime accumulates sim time spent per state.
	stateTime [Failed + 1]sim.Time
	// busy blocks the poller from re-triggering while a transition
	// sequence is in flight on the event queue.
	busy bool
}

// Supervisor drives fault-domain containment for one machine.
type Supervisor struct {
	se    *sim.Engine
	core  *sim.Core
	u     *iommu.IOMMU
	dma   *dmaapi.Engine
	damn  *damn.DAMN // nil on non-DAMN schemes
	model *perf.Model
	devs  map[int]*devState
	order []int
	stop  func()

	// OnRecovered, when non-nil, runs after a device returns to Healthy —
	// workloads use it to kick senders whose pumps stalled on a
	// quarantined ring.
	OnRecovered func(dev int)

	// OnForeignRecord, when non-nil, receives fault records whose source
	// device the supervisor does not manage. The IOMMU's fault-record ring
	// is single-consumer (reading pops it), so when both the device
	// supervisor and the tenant manager are attached, the supervisor owns
	// the read and forwards unclaimed records — tenant virtual functions —
	// through this hook instead of silently consuming them.
	OnForeignRecord func(rec iommu.FaultRecord)

	// Transitions records every state change in order (test and report
	// instrumentation).
	Transitions []Transition

	Storms      uint64
	Quarantines uint64
	Resets      uint64
	Reinits     uint64
	Failures    uint64
	// ReleasedPages / PinnedChunks aggregate DAMN reclamation results.
	ReleasedPages int64
	PinnedChunks  int

	mttrG      *stats.Gauge
	recoveryH  *stats.Histogram
	detectH    *stats.Histogram
	stateTimeC map[State]*stats.FloatCounter
	reg        *stats.Registry
}

// Transition is one recorded state change.
type Transition struct {
	Dev  int
	From State
	To   State
	At   sim.Time
}

// Attach builds a supervisor over a machine's devices and starts its
// detection poll. Supervised devices: the NIC (with its driver) when
// present, plus the NVMe identity (fault counting only — it has no driver
// in this testbed). Stop the returned supervisor's poll via Stop.
func Attach(ma *testbed.Machine) *Supervisor {
	s := &Supervisor{
		se:    ma.Sim,
		core:  ma.Cores[0],
		u:     ma.IOMMU,
		dma:   ma.DMA,
		damn:  ma.Damn,
		model: ma.Model,
		devs:  make(map[int]*devState),
		reg:   ma.Stats,
	}
	if ma.NIC != nil {
		s.addDevice(testbed.NICDeviceID, ma.Driver)
	}
	s.addDevice(testbed.NVMeDeviceID, nil)
	s.initStats()
	s.stop = s.se.Every(pollPeriod, s.poll)
	return s
}

func (s *Supervisor) addDevice(dev int, drv *netstack.Driver) {
	ds := &devState{dev: dev, drv: drv, state: Healthy, enteredAt: s.se.Now()}
	s.reg.GaugeFunc("recovery", fmt.Sprintf("state_dev%d", dev), func() int64 { return int64(ds.state) })
	s.devs[dev] = ds
	s.order = append(s.order, dev)
	sort.Ints(s.order)
}

func (s *Supervisor) initStats() {
	r := s.reg
	for name, count := range map[string]*uint64{
		"storms":      &s.Storms,
		"quarantines": &s.Quarantines,
		"resets":      &s.Resets,
		"reinits":     &s.Reinits,
		"failures":    &s.Failures,
	} {
		r.CounterFunc("recovery", name, func() uint64 { return *count })
	}
	s.mttrG = r.Gauge("recovery", "mttr_ps")
	s.recoveryH = r.Histogram("recovery", "recovery_ps")
	s.detectH = r.Histogram("recovery", "detect_ps")
	s.stateTimeC = make(map[State]*stats.FloatCounter, int(Failed)+1)
	for st := Healthy; st <= Failed; st++ {
		s.stateTimeC[st] = r.FloatCounter("recovery", "time_"+st.String()+"_ps")
	}
}

// Stop halts the detection poll (pending transition events still run).
func (s *Supervisor) Stop() {
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// State reports a device's current recovery state.
func (s *Supervisor) State(dev int) State {
	if ds := s.devs[dev]; ds != nil {
		return ds.state
	}
	return Healthy
}

// Resets reports how many reset attempts the device's current (or last)
// quarantine consumed.
func (s *Supervisor) ResetsFor(dev int) int {
	if ds := s.devs[dev]; ds != nil {
		return ds.resets
	}
	return 0
}

// StateTime reports accumulated sim time the device spent in a state.
func (s *Supervisor) StateTime(dev int, st State) sim.Time {
	ds := s.devs[dev]
	if ds == nil || int(st) >= len(ds.stateTime) {
		return 0
	}
	t := ds.stateTime[st]
	if ds.state == st {
		t += s.se.Now() - ds.enteredAt
	}
	return t
}

func (s *Supervisor) setState(ds *devState, to State) {
	now := s.se.Now()
	ds.stateTime[ds.state] += now - ds.enteredAt
	s.stateTimeC[ds.state].Add(float64(now - ds.enteredAt))
	s.Transitions = append(s.Transitions, Transition{Dev: ds.dev, From: ds.state, To: to, At: now})
	ds.state = to
	ds.enteredAt = now
}

// poll is the detection tick: harvest fault signals, age the window, drive
// Healthy/Degraded/Quarantined transitions. Devices are visited in sorted
// order so the event stream is deterministic.
func (s *Supervisor) poll() {
	now := s.se.Now()
	// Harvest the IOMMU's fault-record ring once and attribute per source
	// device (the ring is shared hardware; records carry the source id).
	for _, rec := range s.u.ReadFaultRecords() {
		if ds := s.devs[rec.Dev]; ds != nil {
			ds.window = append(ds.window, now)
		} else if s.OnForeignRecord != nil {
			s.OnForeignRecord(rec)
		}
	}
	for _, dev := range s.order {
		ds := s.devs[dev]
		// Watchdog shortfall growth means RX posting keeps failing —
		// allocation faults or a sick ring; count the delta as signals.
		if ds.drv != nil && (ds.state == Healthy || ds.state == Degraded) {
			sf := ds.drv.Shortfall()
			if d := sf - ds.lastShortfall; d > 0 {
				for i := 0; i < d; i++ {
					ds.window = append(ds.window, now)
				}
			}
			ds.lastShortfall = sf
		}
		// Age the sliding window.
		cut := 0
		for cut < len(ds.window) && now-ds.window[cut] > signalWindow {
			cut++
		}
		if cut > 0 {
			ds.window = append(ds.window[:0], ds.window[cut:]...)
		}
		if ds.busy {
			continue
		}
		switch ds.state {
		case Healthy:
			if len(ds.window) >= stormThreshold {
				s.declareStorm(ds)
			} else if len(ds.window) >= degradeThreshold {
				s.setState(ds, Degraded)
			}
		case Degraded:
			if len(ds.window) >= stormThreshold {
				s.declareStorm(ds)
			} else if len(ds.window) == 0 {
				s.setState(ds, Healthy)
			}
		}
	}
}

func (s *Supervisor) declareStorm(ds *devState) {
	s.Storms++
	ds.stormStart = ds.window[0]
	s.detectH.Observe(float64(s.se.Now() - ds.stormStart))
	ds.resets = 0
	s.quarantine(ds)
}

// quarantine detaches the fault domain and schedules the reset. The
// sequence runs as an interrupt task on core 0 so every driver/DMA/IOMMU
// mutation happens atomically at one sim timestamp, interleaved cleanly
// with in-flight traffic events.
func (s *Supervisor) quarantine(ds *devState) {
	ds.busy = true
	s.core.Submit(true, func(t *sim.Task) {
		// The state flips at the moment containment executes, so an
		// observer seeing Quarantined can rely on the fence being up.
		s.setState(ds, Quarantined)
		ds.quarantinedAt = s.se.Now()
		s.Quarantines++
		// Order matters: drain the driver while the domain is still
		// attached (legacy unmaps must succeed so IOVA slots recycle),
		// then flush the scheme's deferred batch for this device, then
		// detach — after which any in-flight DMA aborts at the bus.
		if ds.drv != nil {
			ds.drv.QuarantineDrain(t)
			ds.lastShortfall = 0
		}
		s.dma.ResetDevice(t, ds.dev)
		s.u.DetachDevice(ds.dev)
		ds.window = ds.window[:0]
		s.scheduleReset(ds)
	})
}

func (s *Supervisor) scheduleReset(ds *devState) {
	// Exponential backoff charged to simulated time: 1x, 2x, 4x...
	delay := resetBackoff << uint(ds.resets)
	s.se.After(delay, func() { s.reset(ds) })
}

// reset is the function-level reset: drain the invalidation queue so no
// stale IOTLB entry survives into the next domain, reclaim the allocator
// state that belonged to the dead domain, then re-attach and reinitialise.
func (s *Supervisor) reset(ds *devState) {
	s.setState(ds, Resetting)
	s.Resets++
	ds.resets++
	s.core.Submit(true, func(t *sim.Task) {
		// Domain-wide invalidation: the IOTLB may cache translations from
		// the destroyed domain; InvDomain works detached. Only a range
		// invalidation can be rejected.
		_ = s.u.InvQ().Invalidate(t, s.model.ITETimeout, iommu.Command{Kind: iommu.InvDomain, Dev: ds.dev})
		if s.damn != nil {
			released, pinned := s.damn.ReleaseDevice(damn.Ctx{C: t}, ds.dev)
			s.ReleasedPages += released
			s.PinnedChunks = pinned
		}
		// The function-level reset itself (device quiesce + config-space
		// restore), charged as wall time on the supervising core.
		t.ChargeTime(resetTime)
		s.reinit(ds, t)
	})
}

// reinit re-attaches the IOMMU domain and rebuilds the driver rings. A
// ring refill that fails (injected allocation faults) retries the reset
// with doubled backoff, then gives up.
func (s *Supervisor) reinit(ds *devState, t *sim.Task) {
	s.setState(ds, Reinitializing)
	s.Reinits++
	s.u.AttachDevice(ds.dev)
	var err error
	if ds.drv != nil {
		err = ds.drv.Reinit(t)
	}
	if err != nil {
		s.u.DetachDevice(ds.dev)
		if ds.resets >= maxResets {
			s.setState(ds, Failed)
			ds.busy = false
			s.Failures++
			return
		}
		s.setState(ds, Quarantined)
		s.scheduleReset(ds)
		return
	}
	s.recovered(ds)
}

func (s *Supervisor) recovered(ds *devState) {
	s.setState(ds, Healthy)
	ds.busy = false
	ds.window = ds.window[:0]
	if ds.drv != nil {
		ds.lastShortfall = ds.drv.Shortfall()
	}
	ds.mttr = s.se.Now() - ds.quarantinedAt
	s.recoveryH.Observe(float64(ds.mttr))
	s.mttrG.Set(int64(ds.mttr))
	if s.OnRecovered != nil {
		s.OnRecovered(ds.dev)
	}
}

// MTTR returns the last observed quarantine-to-healthy latency for a
// device, or 0 if it never recovered.
func (s *Supervisor) MTTR(dev int) sim.Time {
	if ds := s.devs[dev]; ds != nil {
		return ds.mttr
	}
	return 0
}
