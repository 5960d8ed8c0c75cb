package perf

import (
	"testing"

	"github.com/asplos18/damn/internal/sim"
)

func TestDefaultModelSane(t *testing.T) {
	m := Default28Core()
	if m.NumCores != 28 || m.NumNodes != 2 {
		t.Fatalf("testbed shape wrong: %d cores, %d nodes", m.NumCores, m.NumNodes)
	}
	if m.CoreHz != 2e9 {
		t.Fatalf("core clock %v", m.CoreHz)
	}
	if m.SegmentSize != 64<<10 {
		t.Fatalf("segment size %d", m.SegmentSize)
	}
	// The calibration identities the EXPERIMENTS.md derivations rely on.
	perSeg := m.RXSegCycles + m.SkbAllocCycles + m.SkbFreeCycles +
		float64(m.SegmentSize)*m.CopyCyclesPerByte
	gbps := m.CoreHz / perSeg * float64(m.SegmentSize) * 8 / 1e9
	if gbps < 60 || gbps > 75 {
		t.Fatalf("single-core RX calibration drifted: %.1f Gb/s implied, want ≈67", gbps)
	}
}

func TestChargeHelpers(t *testing.T) {
	e := sim.NewEngine(1)
	c := sim.NewCore(e, 0, 0, 1e9)
	var elapsed sim.Time
	c.Submit(false, func(task *sim.Task) {
		Charge(task, 1000)
		ChargeTime(task, 500*sim.Nanosecond)
		elapsed = task.Elapsed()
	})
	e.RunUntilIdle()
	if elapsed != 1500*sim.Nanosecond {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestChargeNilSafe(t *testing.T) {
	Charge(nil, 100)
	ChargeTime(nil, sim.Microsecond)
	var nilTask *sim.Task
	if !IsNilCharger(nilTask) {
		t.Fatal("typed-nil task not detected")
	}
	Charge(nilTask, 100) // must not panic
	CPUCopy(nilTask, nil, 100, 0.1, 0.5)
}

func TestCPUCopyChargesCycles(t *testing.T) {
	e := sim.NewEngine(1)
	c := sim.NewCore(e, 0, 0, 1e9)
	var elapsed sim.Time
	c.Submit(false, func(task *sim.Task) {
		CPUCopy(task, nil, 1000, 1.0, 0) // 1000 cycles at 1 GHz = 1 us
		elapsed = task.Elapsed()
	})
	e.RunUntilIdle()
	if elapsed != sim.Microsecond {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestCPUCopyCongestionStall(t *testing.T) {
	e := sim.NewEngine(1)
	mc := sim.NewMemController(1e9) // 1 GB/s
	mc.Attach(e)
	c := sim.NewCore(e, 0, 0, 1e9)
	// Saturate the controller: demand 4 GB/s for several windows.
	stop := e.Every(10*sim.Microsecond, func() {
		mc.Use(e.Now(), 40000)
	})
	e.Run(2 * sim.Millisecond)
	stop()
	if mc.Utilization() < 2 {
		t.Fatalf("controller should report overload, rho=%.2f", mc.Utilization())
	}
	var stall sim.Time
	c.Submit(false, func(task *sim.Task) {
		before := task.Elapsed()
		CPUCopy(task, mc, 10000, 0, 1.0) // pure memory time
		stall = task.Elapsed() - before
	})
	e.RunUntilIdle()
	// Service would be 10 us; under overload the queueing extra must
	// dominate.
	if stall < 50*sim.Microsecond {
		t.Fatalf("congested copy stalled only %v", stall)
	}
}

func TestDeviceDMATraffic(t *testing.T) {
	e := sim.NewEngine(1)
	mc := sim.NewMemController(1e9)
	mc.Attach(e)
	done := DeviceDMATraffic(mc, 0, 1000, 1.0)
	if done != sim.Microsecond {
		t.Fatalf("uncongested device transfer completes at %v, want 1us", done)
	}
	if DeviceDMATraffic(nil, 5, 1000, 1.0) != 5 {
		t.Fatal("nil controller should be a no-op")
	}
	if DeviceDMATraffic(mc, 5, 1000, 0) != 5 {
		t.Fatal("zero fraction should be a no-op")
	}
}
