package testbed

import "github.com/asplos18/damn/internal/sim"

// Window is one measurement interval on a machine. OpenWindow snapshots
// simulated time, core busy time summed over every core, and the memory
// controller's cumulative traffic; Close diffs the three into a
// Measurement, whose methods are the only code that turns those deltas
// into reported rates.
type Window struct {
	ma   *Machine
	t0   sim.Time
	busy sim.Time
	mem  float64
}

// OpenWindow starts a measurement window at the current simulated time.
func (ma *Machine) OpenWindow() Window {
	return Window{ma: ma, t0: ma.Sim.Now(), busy: ma.busySum(), mem: ma.MemBW.Used()}
}

// Close ends the window at the current simulated time.
func (w Window) Close() Measurement {
	ma := w.ma
	return Measurement{
		Seconds:  (ma.Sim.Now() - w.t0).Seconds(),
		Busy:     ma.busySum() - w.busy,
		MemBytes: ma.MemBW.Used() - w.mem,
		Cores:    len(ma.Cores),
	}
}

// busySum is the busy time of all cores together.
func (ma *Machine) busySum() sim.Time {
	var b sim.Time
	for _, c := range ma.Cores {
		b += c.Busy()
	}
	return b
}

// Measurement holds a closed window's deltas. Figures compare these rates
// bit for bit across refactors, so each formula below is fixed as written:
// reordering a division changes the last bit.
type Measurement struct {
	// Seconds is the window's length in simulated seconds.
	Seconds float64
	// Busy is the core busy time accrued during the window, all cores
	// together.
	Busy sim.Time
	// MemBytes is the memory-controller traffic during the window.
	MemBytes float64
	// Cores is the machine's core count, the capacity CPUUtil divides by.
	Cores int
}

// Gbps is bytes moved during the window as gigabits per second.
func (m Measurement) Gbps(bytes uint64) float64 { return float64(bytes) * 8 / m.Seconds / 1e9 }

// PerSec is a count of operations during the window as a rate per second.
func (m Measurement) PerSec(n uint64) float64 { return float64(n) / m.Seconds }

// CPUUtil is the fraction of all-core capacity consumed (one core at 100%
// on a 28-core machine reports as 3.57%).
func (m Measurement) CPUUtil() float64 { return m.Busy.Seconds() / (m.Seconds * float64(m.Cores)) }

// BusyCores is how many cores' worth of CPU the window consumed.
func (m Measurement) BusyCores() float64 { return m.Busy.Seconds() / m.Seconds }

// CPUPerMBus is core-busy microseconds per megabyte delivered; 0 when
// nothing was delivered.
func (m Measurement) CPUPerMBus(bytes uint64) float64 {
	if bytes == 0 {
		return 0
	}
	return m.Busy.Seconds() * 1e6 / (float64(bytes) / 1e6)
}

// MemBWGBps is the average memory-controller traffic in GB/s.
func (m Measurement) MemBWGBps() float64 { return m.MemBytes / m.Seconds / 1e9 }
