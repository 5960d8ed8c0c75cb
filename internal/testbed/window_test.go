package testbed

import (
	"testing"

	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

// TestWindowExactDeltas: a window sees exactly the cycles charged inside
// it, none charged before it opened, and turns them into exact rates.
func TestWindowExactDeltas(t *testing.T) {
	ma, err := NewMachine(MachineConfig{Scheme: SchemeOff, MemBytes: 64 << 20, Cores: 4, NoNIC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	charge := func(core int, cycles float64) {
		ma.Cores[core].Submit(false, func(tk *sim.Task) { perf.Charge(tk, cycles) })
	}
	charge(0, 5e6) // before the window: must not count
	ma.Sim.Run(3 * sim.Millisecond)

	w := ma.OpenWindow()
	charge(1, 2e6) // 1 ms at 2 GHz
	ma.MemBW.Use(ma.Sim.Now(), 8e6)
	ma.Sim.Run(ma.Sim.Now() + 4*sim.Millisecond)
	m := w.Close()

	if m.Busy != sim.Millisecond {
		t.Errorf("Busy = %v, want 1ms", m.Busy)
	}
	if m.Seconds != 0.004 || m.Cores != 4 || m.MemBytes != 8e6 {
		t.Errorf("window = %+v, want 4 ms on 4 cores with 8e6 memory bytes", m)
	}
	if got := m.CPUUtil(); got != 0.0625 {
		t.Errorf("CPUUtil = %v, want 0.0625 (1 ms of 4 cores x 4 ms)", got)
	}
	if got := m.BusyCores(); got != 0.25 {
		t.Errorf("BusyCores = %v, want 0.25", got)
	}
	if got := m.CPUPerMBus(1e6); got != 1000 {
		t.Errorf("CPUPerMBus(1 MB) = %v, want 1000", got)
	}
	if got := m.CPUPerMBus(0); got != 0 {
		t.Errorf("CPUPerMBus(0) = %v, want 0", got)
	}
	if got := m.Gbps(1e6); got != 2 {
		t.Errorf("Gbps(1 MB in 4 ms) = %v, want 2", got)
	}
	if got := m.PerSec(100); got != 25000 {
		t.Errorf("PerSec(100 in 4 ms) = %v, want 25000", got)
	}
	if got := m.MemBWGBps(); got != 2 {
		t.Errorf("MemBWGBps = %v, want 2", got)
	}
}
