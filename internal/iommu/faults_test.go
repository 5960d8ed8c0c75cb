package iommu

import (
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

func alwaysInject(k faults.Kind) *faults.Injector {
	return faults.New(faults.Config{Seed: 1, Rates: map[faults.Kind]float64{k: 1}})
}

// TestDrainRetryChargesSimulatedTime is the ITE regression: an injected
// invalidation time-out must stall the calling task for the full
// exponential-backoff wait — recovery is real simulated time, not a free
// retry loop — and the drain must still complete.
func TestDrainRetryChargesSimulatedTime(t *testing.T) {
	u, m := newTestIOMMU(t)
	reg := stats.NewRegistry()
	u.SetStats(reg)
	u.SetFaults(alwaysInject(faults.InvTimeout))
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	if err := u.Map(1, 0x1000, pa, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := u.InvQ().Submit(Command{Kind: InvRange, Dev: 1, Base: 0x1000, Size: mem.PageSize}); err != nil {
		t.Fatal(err)
	}

	se := sim.NewEngine(0)
	core := sim.NewCore(se, 0, 0, 1e9)
	const timeout = 10 * sim.Microsecond
	// Rate 1 times out every attempt, so the OS pays the full capped
	// exponential series: timeout * (2^maxITERetries - 1).
	want := timeout * ((1 << 8) - 1)
	var end sim.Time
	var drained int
	core.Submit(false, func(task *sim.Task) {
		drained = u.InvQ().DrainRetry(task, timeout)
		end = task.Now()
	})
	se.RunUntilIdle()

	if drained != 1 {
		t.Fatalf("drained %d commands, want 1", drained)
	}
	if end != want {
		t.Fatalf("task advanced %v, want %v of ITE backoff", end, want)
	}
	if core.Busy() != want {
		t.Fatalf("core busy %v, want %v", core.Busy(), want)
	}
	if u.InvQ().ITETimeouts != 8 {
		t.Fatalf("ITETimeouts = %d, want 8", u.InvQ().ITETimeouts)
	}
	if got := reg.Snapshot().Counters["iommu/ite_timeouts"]; got != 8 {
		t.Fatalf("registry ite_timeouts = %d, want 8", got)
	}
}

// TestDrainRetryWithoutFaultsIsDrain: a nil injector (or a quiet one) makes
// DrainRetry cost nothing beyond Drain.
func TestDrainRetryWithoutFaultsIsDrain(t *testing.T) {
	u, _ := newTestIOMMU(t)
	u.AttachDevice(1)
	se := sim.NewEngine(0)
	core := sim.NewCore(se, 0, 0, 1e9)
	var end sim.Time
	core.Submit(false, func(task *sim.Task) {
		u.InvQ().DrainRetry(task, 10*sim.Microsecond)
		end = task.Now()
	})
	se.RunUntilIdle()
	if end != 0 {
		t.Fatalf("fault-free DrainRetry charged %v", end)
	}
	if u.InvQ().ITETimeouts != 0 {
		t.Fatal("spurious ITE timeouts")
	}
}

// TestInjectedDMAFaultRecords: an injected translation fault must abort the
// access with a fault and land in the bounded fault-record queue, flagged
// as injected; overflow drops records and counts them.
func TestInjectedDMAFaultRecords(t *testing.T) {
	u, m := newTestIOMMU(t)
	reg := stats.NewRegistry()
	u.SetStats(reg)
	u.SetFaults(alwaysInject(faults.DMAFault))
	u.AttachDevice(1)
	pa := allocPA(t, m, 0)
	if err := u.Map(1, 0x1000, pa, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}

	// Push well past the queue depth: every translate faults at rate 1.
	total := FaultRecordDepth + 10
	for i := 0; i < total; i++ {
		if _, err := u.Translate(1, 0x1000, false); err == nil {
			t.Fatal("injected DMA fault did not surface")
		}
	}
	recs := u.ReadFaultRecords()
	if len(recs) != FaultRecordDepth {
		t.Fatalf("read %d records, want the full queue %d", len(recs), FaultRecordDepth)
	}
	for _, r := range recs {
		if !r.Injected {
			t.Fatal("record not flagged injected")
		}
		if r.Dev != 1 {
			t.Fatalf("record dev %d", r.Dev)
		}
	}
	recorded, overflowed := u.FaultQueueStats()
	if recorded != uint64(FaultRecordDepth) {
		t.Fatalf("recorded %d", recorded)
	}
	if overflowed != uint64(total-FaultRecordDepth) {
		t.Fatalf("overflowed %d, want %d", overflowed, total-FaultRecordDepth)
	}
	// Reading drained the queue; the next fault records again.
	if u.PendingFaultRecords() != 0 {
		t.Fatalf("queue not drained: %d", u.PendingFaultRecords())
	}
	if _, err := u.Translate(1, 0x1000, false); err == nil {
		t.Fatal("expected fault")
	}
	if u.PendingFaultRecords() != 1 {
		t.Fatalf("new fault not recorded: %d pending", u.PendingFaultRecords())
	}
}

// TestPerDeviceFaultAttribution: the fault ring's per-source-device
// counters must attribute records (and overflow losses) to the right fault
// domain, and DetachDevice must make subsequent DMA fault naturally.
func TestPerDeviceFaultAttribution(t *testing.T) {
	u, m := newTestIOMMU(t)
	reg := stats.NewRegistry()
	u.SetStats(reg)
	u.AttachDevice(1)
	u.AttachDevice(2)
	pa := allocPA(t, m, 0)
	if err := u.Map(1, 0x1000, pa, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}

	// Device 2 faults on an address it never mapped; device 1 stays clean.
	for i := 0; i < 5; i++ {
		if _, err := u.Translate(2, 0x9000, false); err == nil {
			t.Fatal("expected fault for unmapped iova")
		}
	}
	if n := u.BlockedDMAsFor(2); n != 5 {
		t.Fatalf("device 2 blocked DMAs = %d, want 5", n)
	}
	if n := u.BlockedDMAsFor(1); n != 0 {
		t.Fatalf("device 1 blocked DMAs = %d, want 0", n)
	}
	rec2, over2, _ := u.DeviceFaultStats(2)
	if rec2 != 5 || over2 != 0 {
		t.Fatalf("device 2 fault stats = (%d,%d), want (5,0)", rec2, over2)
	}
	if rec1, _, _ := u.DeviceFaultStats(1); rec1 != 0 {
		t.Fatalf("device 1 recorded %d faults, want 0", rec1)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("iommu/fault_records_dev2"); got != 5 {
		t.Fatalf("registry fault_records_dev2 = %d, want 5", got)
	}

	// Overflow the ring from device 2: losses must stay attributed.
	for i := 0; i < FaultRecordDepth+7; i++ {
		u.Translate(2, 0x9000, false)
	}
	_, over2, _ = u.DeviceFaultStats(2)
	// 5 records were already queued, so the ring had Depth-5 free slots.
	wantOver := uint64(7 + 5)
	if over2 != wantOver {
		t.Fatalf("device 2 overflows = %d, want %d", over2, wantOver)
	}
	if _, over1, _ := u.DeviceFaultStats(1); over1 != 0 {
		t.Fatalf("device 1 charged %d overflows", over1)
	}

	// Detach: device 1's formerly valid DMA now faults naturally and is
	// attributed to it.
	if pages, ok := u.DetachDevice(1); !ok || pages != 1 {
		t.Fatalf("DetachDevice = (%d,%v)", pages, ok)
	}
	if u.Attached(1) {
		t.Fatal("device 1 still attached")
	}
	if _, err := u.Translate(1, 0x1000, false); err == nil {
		t.Fatal("detached device translated successfully")
	}
	if n := u.BlockedDMAsFor(1); n != 1 {
		t.Fatalf("device 1 blocked DMAs after detach = %d, want 1", n)
	}
}

// TestStatsViewsReadCounts: the registry's iommu views report the counts
// the IOMMU keeps, a per-device fault view included, at snapshot time.
func TestStatsViewsReadCounts(t *testing.T) {
	u, m := newTestIOMMU(t)
	reg := stats.NewRegistry()
	u.SetStats(reg)
	u.AttachDevice(1)
	if err := u.Map(1, 0x1000, allocPA(t, m, 0), mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		u.Translate(1, 0x1000, false)
		u.Translate(2, 0x9000, false) // device 2 is not attached: a fault
	}
	snap := reg.Snapshot()
	if got := snap.Counter("iommu/translations"); got != 2000 {
		t.Errorf("iommu/translations = %d, want 2000", got)
	}
	if got := snap.Counter("iommu/blocked_dmas_dev2"); got != 1000 {
		t.Errorf("iommu/blocked_dmas_dev2 = %d, want 1000", got)
	}
}
