package perf

import "github.com/asplos18/damn/internal/sim"

// CPUCopy models a kernel memory copy of n bytes performed by the current
// task: it charges the CPU cycles and accounts the resulting DRAM traffic
// against the shared memory controller. When the controller is congested
// (aggregate demand near the ceiling), the copy suffers a queueing stall —
// burned CPU, which is exactly how shadow buffers cannibalize cycles in
// Fig 2/Fig 6.
//
// membw may be nil in functional tests.
func CPUCopy(c Charger, membw *sim.MemController, n int, cyclesPerByte, memFraction float64) {
	if IsNilCharger(c) {
		return
	}
	c.Charge(float64(n) * cyclesPerByte)
	if membw == nil || n == 0 || memFraction == 0 {
		return
	}
	_, extra := membw.Use(c.Now(), float64(n)*memFraction)
	if extra > 0 {
		c.ChargeTime(extra)
	}
}

// DeviceDMATraffic accounts a device-initiated transfer of n bytes against
// the memory controller and returns the completion time of its memory
// phase; the device model uses it to pace its rings (it has no CPU to
// stall).
func DeviceDMATraffic(membw *sim.MemController, now sim.Time, n int, memFraction float64) sim.Time {
	if membw == nil || n == 0 || memFraction == 0 {
		return now
	}
	service, extra := membw.Use(now, float64(n)*memFraction)
	return now + service + extra
}
