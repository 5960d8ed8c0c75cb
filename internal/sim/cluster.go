package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Cluster executes several engines — logical processes, one per simulated
// machine or router — as a conservative discrete-event simulation. Shards
// only interact through cross-shard messages carrying at least the
// cluster's lookahead of propagation delay (link latency), which is the
// classic conservative-synchronization precondition: inside an epoch of
// length lookahead, no shard can affect another shard's present, so each
// shard advances its private event queue to the epoch's end on its own.
// At the epoch barrier the buffered cross-shard messages are merged into
// their destination engines in deterministic (time, source shard, send
// sequence) order, so the engine-level (at, seq) tie-break sees one
// enqueue order for same-time deliveries — the epochs, the outboxes and
// the merge together define the event order of a topology.
//
// Every epoch runs on the calling goroutine. At the topologies this
// repository builds (a handful of shards, about 1.5 events per shard per
// 5 µs epoch) a shard's epoch is shorter than starting and joining a
// goroutine for it, so host parallelism belongs across topologies (the
// experiment runner's jobs), not inside one (DESIGN.md §13).
type Cluster struct {
	look   Time
	now    Time
	shards []*Shard
	epochs uint64

	// scratch is the barrier's merge buffer, reused across epochs.
	scratch []xmsg
}

// Shard is one logical process: a private engine plus the outbox of
// cross-shard messages generated during the current epoch, which the
// barrier drains.
type Shard struct {
	id  int
	eng *Engine
	out []xmsg
	seq uint64
}

// xmsg is one buffered cross-shard delivery.
type xmsg struct {
	at  Time
	src int
	seq uint64
	dst *Shard
	fn  func()
}

// NewCluster builds an empty cluster. lookahead must be positive and no
// larger than the smallest cross-shard link latency the topology will use.
//
// The second argument is ignored. It was the host worker count when epochs
// could fan out over goroutines, and stays only until the benchmark module
// (perfbench), which still passes it, next changes.
func NewCluster(lookahead Time, _ int) *Cluster {
	if lookahead <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	return &Cluster{look: lookahead}
}

// AddShard creates a new logical process with its own engine.
func (c *Cluster) AddShard(seed int64) *Shard {
	s := &Shard{id: len(c.shards), eng: NewEngine(seed)}
	c.shards = append(c.shards, s)
	return s
}

// Engine returns the shard's private event engine.
func (s *Shard) Engine() *Engine { return s.eng }

// ID returns the shard's index in the cluster.
func (s *Shard) ID() int { return s.id }

// Send schedules fn at absolute time at on the destination shard. Called
// from inside the source shard's epoch (an event callback on its engine).
// Same-shard sends go straight onto the local queue; cross-shard sends are
// buffered and merged at the epoch barrier, which requires at to land at or
// after the epoch boundary — guaranteed when the message carries at least
// the cluster's lookahead of delay.
func (s *Shard) Send(dst *Shard, at Time, fn func()) {
	if dst == s {
		s.eng.At(at, fn)
		return
	}
	s.seq++
	s.out = append(s.out, xmsg{at: at, src: s.id, seq: s.seq, dst: dst, fn: fn})
}

// Lookahead returns the epoch length.
func (c *Cluster) Lookahead() Time { return c.look }

// Now returns the cluster's epoch-barrier time (every shard's engine has
// advanced at least this far).
func (c *Cluster) Now() Time { return c.now }

// Epochs reports how many epoch barriers have completed.
func (c *Cluster) Epochs() uint64 { return c.epochs }

// Shards returns the cluster's logical processes in ID order.
func (c *Cluster) Shards() []*Shard { return c.shards }

// Run advances every shard to until, one lookahead-bounded epoch at a time.
func (c *Cluster) Run(until Time) {
	for c.now < until {
		end := min(c.now+c.look, until)
		for _, s := range c.shards {
			s.eng.Run(end)
		}
		c.merge(end)
		c.now = end
		c.epochs++
	}
}

// merge drains every shard's outbox into the destination engines, sorted by
// (time, source shard, send sequence). The destination engine runs
// equal-time events in push order, so this sort fully determines the
// execution order of same-time deliveries, independent of the order the
// shards ran in. The keys are unique per message, so the sort needs no
// stability. A message landing before the epoch boundary would have to
// rewrite its destination's past; that can only come from a topology whose
// cross-shard latency is below the cluster lookahead, which is a
// construction bug worth dying loudly for.
func (c *Cluster) merge(end Time) {
	msgs := c.scratch[:0]
	for _, s := range c.shards {
		msgs = append(msgs, s.out...)
		// Drop closure refs so the retained outbox array leaks nothing.
		clear(s.out)
		s.out = s.out[:0]
	}
	slices.SortFunc(msgs, func(a, b xmsg) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for i := range msgs {
		m := &msgs[i]
		if m.at < end {
			panic(fmt.Sprintf("sim: cross-shard message at %v lands inside the epoch ending %v (link latency below cluster lookahead %v)",
				m.at, end, c.look))
		}
		m.dst.eng.At(m.at, m.fn)
	}
	clear(msgs)
	c.scratch = msgs[:0]
}
