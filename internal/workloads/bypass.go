package workloads

import (
	"fmt"

	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// BypassConfig describes one kernel-bypass polling run: Rings queue pairs,
// each owned by a polling driver spinning on its own dedicated core.
type BypassConfig struct {
	Machine *testbed.Machine
	// Rings is the number of poll-mode queue pairs (default 1); ring i's
	// driver spins on core i.
	Rings    int
	Duration sim.Time
	Warmup   sim.Time
}

// bypassIdleWindow, measured before any load is offered, captures the
// busy-poll burn of an idle bypass app.
const bypassIdleWindow = 2 * sim.Millisecond

// BypassResult is one row of the bypass figure.
type BypassResult struct {
	Scheme string
	RXGbps float64
	// CPUUtil is the fraction of all-core capacity consumed — for a
	// polling driver this approaches 100% of its dedicated cores by
	// construction.
	CPUUtil float64
	// CPUPerMBus is CPU microseconds charged per megabyte delivered,
	// spin time included — the honest cost-of-goodput metric the figure
	// compares across schemes.
	CPUPerMBus float64
	// IdleBurnCores is how many cores' worth of CPU the driver burned
	// during the idle window with zero traffic offered (≈ Rings for a
	// busy-poll loop; 0 for an interrupt driver).
	IdleBurnCores float64
	MemBWGBps     float64
	Polls         uint64
	Harvested     uint64
	Doorbells     uint64
	PublishFaults uint64
}

// RunBypass executes a kernel-bypass run on a bypass-raw or bypass-prot
// machine: set up the pool and virtqueues, measure idle burn, then offer
// one steered line-rate flow per ring and measure goodput and CPU/MB.
func RunBypass(cfg BypassConfig) (BypassResult, error) {
	ma := cfg.Machine
	if ma == nil {
		return BypassResult{}, fmt.Errorf("workloads: nil machine")
	}
	if !testbed.IsBypass(ma.Cfg.Scheme) {
		return BypassResult{}, fmt.Errorf("workloads: RunBypass on scheme %q", ma.Cfg.Scheme)
	}
	if cfg.Rings <= 0 {
		cfg.Rings = 1
	}
	if cfg.Duration == 0 {
		cfg.Duration = 100 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 20 * sim.Millisecond
	}
	if cfg.Rings > ma.NIC.Cfg.Rings {
		return BypassResult{}, fmt.Errorf("workloads: %d bypass rings on a %d-ring NIC", cfg.Rings, ma.NIC.Cfg.Rings)
	}
	prot := ma.Cfg.Scheme == testbed.SchemeBypassProt

	drivers := make([]*netstack.BypassDriver, cfg.Rings)
	var setupErr error
	for ring := 0; ring < cfg.Rings; ring++ {
		d := netstack.NewBypassDriver(ma.Kernel, ma.NIC, ring, testbed.BypassDeviceID, prot)
		drivers[ring] = d
		d.Core().Submit(false, func(t *sim.Task) {
			if err := d.Setup(t); err != nil && setupErr == nil {
				setupErr = err
			}
		})
	}
	ma.Sim.Run(ma.Sim.Now())
	if setupErr != nil {
		return BypassResult{}, setupErr
	}
	for _, d := range drivers {
		d.Start()
	}
	defer func() {
		for _, d := range drivers {
			d.Stop()
		}
	}()

	// Idle window: the poll loops spin against an empty used ring.
	idle := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + bypassIdleWindow)
	idleBurn := idle.Close().BusyCores()

	// One steered line-rate flow per ring, ports round-robined.
	var gens []*Generator
	for ring := 0; ring < cfg.Rings; ring++ {
		g, err := NewGenerator(ma, ring%ma.Model.NICPorts, ring, ring+1, ma.Model.SegmentSize)
		if err != nil {
			return BypassResult{}, err
		}
		gens = append(gens, g)
	}
	for _, g := range gens {
		g.Start()
	}
	defer func() {
		for _, g := range gens {
			g.Stop()
		}
	}()

	ma.Sim.Run(ma.Sim.Now() + cfg.Warmup)
	var bytes0 uint64
	for _, d := range drivers {
		bytes0 += d.Bytes
	}
	w := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + cfg.Duration)
	m := w.Close()

	var bytes uint64
	res := BypassResult{Scheme: ma.SchemeName(), IdleBurnCores: idleBurn}
	for _, d := range drivers {
		bytes += d.Bytes
		res.Polls += d.Polls
		res.Harvested += d.Harvested
		res.Doorbells += d.Doorbells
		res.PublishFaults += d.Virtqueue().PublishFaults
	}
	bytes -= bytes0
	res.RXGbps = m.Gbps(bytes)
	res.CPUUtil = m.CPUUtil()
	res.CPUPerMBus = m.CPUPerMBus(bytes)
	res.MemBWGBps = m.MemBWGBps()
	return res, nil
}
