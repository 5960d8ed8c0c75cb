package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// BypassRow is one row of the kernel-bypass figure: the five kernel schemes
// under single-core netperf RX next to the two bypass flavors under the
// polling driver, with the measured safety verdicts extending Table 1's
// matrix to the bypass world.
type BypassRow struct {
	Scheme string
	// RXGbps is single-core receive goodput (one dedicated core either
	// running the kernel stack or busy-polling).
	RXGbps float64
	// CPUPerMBus is CPU microseconds charged per megabyte delivered —
	// spin time included for the polling schemes, which is the honest
	// comparison the busy-poll trade-off demands.
	CPUPerMBus float64
	// IdleBurnCores is cores' worth of CPU consumed with zero traffic
	// offered (0 for interrupt drivers; ≈1 per poll core for bypass).
	IdleBurnCores float64
	// Subpage / NoWindow are the measured Table 1 safety verdicts:
	// can the device reach co-located kernel data, and can it touch a
	// buffer after the host believes ownership returned.
	Subpage  bool
	NoWindow bool
}

// withBypass lists the five kernel schemes, then the bypass pair.
func withBypass() []testbed.Scheme {
	return append(append([]testbed.Scheme{}, testbed.AllSchemes...), testbed.BypassSchemes...)
}

// Bypass runs the kernel-bypass figure: every kernel scheme plus both
// bypass flavors, one job each, with in-figure acceptance checks (raw must
// beat iommu-off, prot must stay within 10% of raw, both must burn idle
// CPU — the defining busy-poll cost). The safety columns come from the
// attack catalog (see safety).
func Bypass(opts Options) ([]BypassRow, error) {
	warm, dur := opts.durations()
	schemes := withBypass()
	rows, err := runJobs(opts, len(schemes), func(i int, opts Options) (BypassRow, error) {
		scheme := schemes[i]
		measure := kernelSchemeRow
		if testbed.IsBypass(scheme) {
			measure = bypassSchemeRow
		}
		row, err := measure(scheme, opts, warm, dur)
		if err != nil {
			return BypassRow{}, err
		}
		row.Subpage, row.NoWindow, err = safety(scheme, opts)
		return row, err
	})
	if err != nil {
		return nil, err
	}
	byScheme := map[string]BypassRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	off := byScheme[string(testbed.SchemeOff)]
	raw := byScheme[string(testbed.SchemeBypassRaw)]
	prot := byScheme[string(testbed.SchemeBypassProt)]
	if raw.RXGbps < off.RXGbps {
		return nil, fmt.Errorf("bypass: raw goodput %.1f Gb/s below iommu-off %.1f Gb/s", raw.RXGbps, off.RXGbps)
	}
	if prot.RXGbps < 0.9*raw.RXGbps {
		return nil, fmt.Errorf("bypass: prot goodput %.1f Gb/s more than 10%% below raw %.1f Gb/s", prot.RXGbps, raw.RXGbps)
	}
	if raw.IdleBurnCores <= 0 || prot.IdleBurnCores <= 0 {
		return nil, fmt.Errorf("bypass: idle busy-poll burn missing (raw %.2f, prot %.2f cores)", raw.IdleBurnCores, prot.IdleBurnCores)
	}
	return rows, nil
}

// kernelSchemeRow measures one kernel scheme under the figure's common
// yardstick: single-core netperf RX (Fig 4a's shape).
func kernelSchemeRow(scheme testbed.Scheme, opts Options, warm, dur sim.Time) (BypassRow, error) {
	ma, err := newMachine(scheme, opts, 512<<20, 32)
	if err != nil {
		return BypassRow{}, err
	}
	defer ma.Close()
	res, err := workloads.RunNetperf(workloads.NetperfConfig{
		Machine: ma, Warmup: warm, Duration: dur,
		RXCores: repCores(0, 4), ExtraCycles: extraSingleCore,
	})
	if err != nil {
		return BypassRow{}, err
	}
	opts.emit("bypass/"+string(scheme), ma)
	return BypassRow{
		Scheme:     string(scheme),
		RXGbps:     res.RXGbps,
		CPUPerMBus: cpuPerMBus(res.CPUUtil, len(ma.Cores), res.RXGbps),
	}, nil
}

// bypassSchemeRow measures one bypass flavor under the polling driver.
func bypassSchemeRow(scheme testbed.Scheme, opts Options, warm, dur sim.Time) (BypassRow, error) {
	ma, err := newMachine(scheme, opts, 512<<20, 32)
	if err != nil {
		return BypassRow{}, err
	}
	defer ma.Close()
	res, err := workloads.RunBypass(workloads.BypassConfig{
		Machine: ma, Rings: 1, Warmup: warm, Duration: dur,
	})
	if err != nil {
		return BypassRow{}, err
	}
	// Injected DMA faults refuse used-ring publishes too, so the gate
	// holds only on a fault-free run.
	if opts.FaultRate <= 0 && res.PublishFaults != 0 {
		return BypassRow{}, fmt.Errorf("bypass: %s: %d used-ring publishes faulted", scheme, res.PublishFaults)
	}
	opts.emit("bypass/"+string(scheme), ma)
	return BypassRow{
		Scheme:        string(scheme),
		RXGbps:        res.RXGbps,
		CPUPerMBus:    res.CPUPerMBus,
		IdleBurnCores: res.IdleBurnCores,
	}, nil
}

// cpuPerMBus converts a whole-machine CPU utilisation into CPU µs per MB
// delivered: util × cores gives seconds of CPU per second, RXGbps × 125
// gives MB per second.
func cpuPerMBus(util float64, cores int, rxGbps float64) float64 {
	if rxGbps <= 0 {
		return 0
	}
	return util * float64(cores) * 1e6 / (rxGbps * 125)
}

// RenderBypass renders the figure.
func RenderBypass(rows []BypassRow) string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme, f1(r.RXGbps), f1(r.CPUPerMBus), fmt.Sprintf("%.2f", r.IdleBurnCores),
			mark(r.Subpage), mark(r.NoWindow),
		})
	}
	return "Bypass: single-core RX goodput and CPU cost, kernel stack vs. virtio-style polling\n" +
		"(idle-burn = cores spinning with no traffic; safety columns measured by attack probes)\n" +
		RenderTable([]string{"scheme", "RX Gb/s", "CPU us/MB", "idle-burn", "subpage-safe", "no-window"}, cells)
}
