package topo

import (
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

func smallMachine(seed int64) testbed.MachineConfig {
	return testbed.MachineConfig{
		Scheme:   testbed.SchemeDAMN,
		Seed:     seed,
		Cores:    1,
		MemBytes: 64 << 20,
	}
}

// TestConnectRejectsSubLookaheadLatency: every builder edge must refuse a
// cross-shard link faster than the cluster's lookahead — such a link would
// let a message land inside an epoch that has already executed.
func TestConnectRejectsSubLookaheadLatency(t *testing.T) {
	tp := New(10 * sim.Microsecond)
	defer tp.Close()
	a, err := tp.AddMachine(smallMachine(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tp.AddMachine(smallMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	r := tp.AddRouter(3, 0, func(device.Segment) int { return 0 })
	if err := tp.ConnectMachines(a, 0, b, 0, 1*sim.Microsecond); err == nil {
		t.Error("ConnectMachines accepted a sub-lookahead cross-shard link")
	}
	if err := tp.ConnectMachineToRouter(a, 0, r, 1*sim.Microsecond); err == nil {
		t.Error("ConnectMachineToRouter accepted a sub-lookahead cross-shard link")
	}
	if _, err := tp.ConnectRouterToMachine(r, b, 0, 100, 1*sim.Microsecond); err == nil {
		t.Error("ConnectRouterToMachine accepted a sub-lookahead cross-shard link")
	}
	// At exactly the lookahead the same edges are legal.
	if err := tp.ConnectMachines(a, 0, b, 0, 10*sim.Microsecond); err != nil {
		t.Errorf("ConnectMachines rejected a latency equal to the lookahead: %v", err)
	}
}

// TestRouterDropsUnroutableSegments: a route function returning an invalid
// port must count a drop, not panic or forward.
func TestRouterDropsUnroutableSegments(t *testing.T) {
	tp := New(5 * sim.Microsecond)
	defer tp.Close()
	r := tp.AddRouter(1, 0, func(device.Segment) int { return 7 })
	r.receive(device.Segment{Len: 1500})
	if r.Dropped != 1 || r.Forwarded != 0 {
		t.Fatalf("dropped=%d forwarded=%d, want 1/0", r.Dropped, r.Forwarded)
	}
}

// TestEachMachineOwnsAShard: placement puts every machine and router on its
// own shard, so they advance as independent logical processes.
func TestEachMachineOwnsAShard(t *testing.T) {
	tp := New(5 * sim.Microsecond)
	defer tp.Close()
	a, err := tp.AddMachine(smallMachine(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tp.AddMachine(smallMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	r := tp.AddRouter(3, 0, func(device.Segment) int { return 0 })
	if a.Shard() == b.Shard() || a.Shard() == r.Shard() {
		t.Fatal("machines/routers share a shard")
	}
	if a.M.Sim != a.Shard().Engine() {
		t.Fatal("machine does not run on its shard's engine")
	}
	if len(tp.Cluster().Shards()) != 3 {
		t.Fatalf("cluster has %d shards, want 3", len(tp.Cluster().Shards()))
	}
}
