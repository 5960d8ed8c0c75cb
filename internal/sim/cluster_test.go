package sim

import "testing"

func TestClusterMergeOrdersByShardAndSeq(t *testing.T) {
	const look = 5 * Microsecond
	c := NewCluster(look, 0)
	a, b, dst := c.AddShard(1), c.AddShard(2), c.AddShard(3)

	// Shards a and b both send two messages landing at the same instant.
	// The merged execution order must be (shard, seq): a#1, a#2, b#1, b#2
	// regardless of send order inside the epoch.
	var got []string
	at := look // epoch boundary — legal landing time
	b.Engine().At(0, func() {
		b.Send(dst, at, func() { got = append(got, "b1") })
		b.Send(dst, at, func() { got = append(got, "b2") })
	})
	a.Engine().At(0, func() {
		a.Send(dst, at, func() { got = append(got, "a1") })
		a.Send(dst, at, func() { got = append(got, "a2") })
	})
	c.Run(2 * look)
	want := []string{"a1", "a2", "b1", "b2"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge order %v, want %v", got, want)
		}
	}
}

func TestClusterSameShardSendIsLocal(t *testing.T) {
	c := NewCluster(10*Microsecond, 0)
	s := c.AddShard(1)
	ran := false
	// A same-shard send below the lookahead is legal: it never crosses the
	// barrier.
	s.Engine().At(0, func() {
		s.Send(s, 1*Microsecond, func() { ran = true })
	})
	c.Run(20 * Microsecond)
	if !ran {
		t.Fatal("same-shard send did not run")
	}
	if c.Epochs() != 2 {
		t.Fatalf("epochs = %d, want 2", c.Epochs())
	}
}

func TestClusterPanicsOnSubLookaheadMessage(t *testing.T) {
	c := NewCluster(10*Microsecond, 0)
	a, b := c.AddShard(1), c.AddShard(2)
	a.Engine().At(0, func() {
		b2 := b
		a.Send(b2, 1*Microsecond, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: cross-shard message lands inside the epoch")
		}
	}()
	c.Run(20 * Microsecond)
}

func TestClusterRunStopsAtUntil(t *testing.T) {
	c := NewCluster(7*Microsecond, 0)
	s := c.AddShard(1)
	var ticks int
	s.Engine().Every(2*Microsecond, func() { ticks++ })
	c.Run(20 * Microsecond)
	if c.Now() != 20*Microsecond {
		t.Fatalf("cluster now = %v", c.Now())
	}
	if s.Engine().Now() != 20*Microsecond {
		t.Fatalf("shard now = %v", s.Engine().Now())
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

// TestClusterEpochSteadyStateAllocs gates the epoch barrier: with two
// shards sending each other one message per epoch (the density of
// perfbench's sim.epoch micro), an epoch — both engines, the merge sort and
// the deliveries — must not touch the Go heap. sort.Slice in the merge once
// made 3 mallocs per epoch, and the goroutine per shard 5 more.
func TestClusterEpochSteadyStateAllocs(t *testing.T) {
	const look = 5 * Microsecond
	c := NewCluster(look, 0)
	a, b := c.AddShard(1), c.AddShard(2)
	var delivered int
	deliver := func() { delivered++ }
	for _, pair := range [][2]*Shard{{a, b}, {b, a}} {
		src, dst := pair[0], pair[1]
		src.Engine().Every(look, func() { src.Send(dst, src.Engine().Now()+look, deliver) })
	}
	epoch := func() { c.Run(c.Now() + look) }
	for i := 0; i < 100; i++ {
		epoch() // warm the outboxes, the merge buffer and the event pools
	}
	before := delivered
	if n := mallocs(1000, epoch); n != 0 {
		t.Fatalf("cluster epochs made %d mallocs in 1000 epochs, want 0", n)
	}
	if delivered != before+2000 {
		t.Fatalf("%d messages delivered in 1000 epochs, want 2000; the barrier under test did not run", delivered-before)
	}
}
