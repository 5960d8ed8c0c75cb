// Package topo builds multi-machine network topologies on top of the
// sharded conservative event engine (sim.Cluster). Each testbed machine and
// each router is one logical process with a private event queue; they
// interact only through device.Link edges, whose propagation latency is the
// lookahead that lets each shard advance a whole epoch on its own. The
// cluster merges cross-shard deliveries in deterministic (time, shard,
// sequence) order at every epoch barrier, so a topology replays exactly
// for a given seed.
package topo

import (
	"fmt"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// Node is one machine placed on its own shard.
type Node struct {
	M     *testbed.Machine
	shard *sim.Shard
}

// Shard returns the cluster shard the machine runs on.
func (n *Node) Shard() *sim.Shard { return n.shard }

// Router is a store-and-forward switch on its own shard: segments arriving
// from any connected link are routed to an output port, pay that port's
// serialization time, and are forwarded on. Output queues are bounded in
// time: when a port's wire backlog exceeds queueLimit the segment is
// tail-dropped — the congestion behaviour that makes incast measurable.
type Router struct {
	se         *sim.Engine
	shard      *sim.Shard
	ports      []*device.Link
	route      func(device.Segment) int
	queueLimit sim.Time

	// Forwarded and Dropped count routed and tail-dropped segments.
	Forwarded uint64
	Dropped   uint64
}

// Shard returns the cluster shard the router runs on.
func (r *Router) Shard() *sim.Shard { return r.shard }

// receive is the terminus of every link pointing at the router; it runs on
// the router's shard.
func (r *Router) receive(seg device.Segment) {
	out := r.route(seg)
	if out < 0 || out >= len(r.ports) {
		r.Dropped++
		return
	}
	l := r.ports[out]
	now := r.se.Now()
	if r.queueLimit > 0 && l.Backlog(now) > r.queueLimit {
		// Output queue full: tail-drop. The segment's wire time was paid
		// on the ingress link; a dropped frame costs the output nothing.
		r.Dropped++
		return
	}
	r.Forwarded++
	l.Forward(l.Reserve(now, seg.Len), seg)
}

// Topology is a set of machines and routers wired by links, executing on a
// sim.Cluster.
type Topology struct {
	cluster *sim.Cluster
	nodes   []*Node
	routers []*Router
}

// New creates an empty topology. lookahead is the epoch length and the
// minimum latency any cross-shard link may carry.
func New(lookahead sim.Time) *Topology {
	return &Topology{cluster: sim.NewCluster(lookahead, 0)}
}

// Cluster exposes the underlying conservative engine.
func (tp *Topology) Cluster() *sim.Cluster { return tp.cluster }

// Nodes returns the machines in placement order.
func (tp *Topology) Nodes() []*Node { return tp.nodes }

// AddMachine places a machine on a fresh shard. The shard's engine is
// seeded from cfg.Seed, and the machine is built on it.
func (tp *Topology) AddMachine(cfg testbed.MachineConfig) (*Node, error) {
	shard := tp.cluster.AddShard(cfg.Seed)
	cfg.Engine = shard.Engine()
	m, err := testbed.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{M: m, shard: shard}
	tp.nodes = append(tp.nodes, n)
	return n, nil
}

// AddRouter places a router on a fresh shard. route maps a segment to an
// output port (the order ports are attached by ConnectRouterToMachine);
// queueLimit bounds each output port's wire backlog (0 = unbounded).
func (tp *Topology) AddRouter(seed int64, queueLimit sim.Time, route func(device.Segment) int) *Router {
	shard := tp.cluster.AddShard(seed)
	r := &Router{se: shard.Engine(), shard: shard, route: route, queueLimit: queueLimit}
	tp.routers = append(tp.routers, r)
	return r
}

// sched returns the cross-shard delivery hook for a link from src to dst —
// nil when both ends share a shard (plain local scheduling).
func sched(src, dst *sim.Shard) func(sim.Time, func()) {
	if src == dst {
		return nil
	}
	return func(at sim.Time, fn func()) { src.Send(dst, at, fn) }
}

// checkLatency enforces the conservative-synchronization precondition: a
// cross-shard link must carry at least the cluster's lookahead of delay.
func (tp *Topology) checkLatency(src, dst *sim.Shard, latency sim.Time) error {
	if src != dst && latency < tp.cluster.Lookahead() {
		return fmt.Errorf("topo: cross-shard link latency %v below cluster lookahead %v",
			latency, tp.cluster.Lookahead())
	}
	return nil
}

// ConnectMachines wires one direction of a cable: a's egress port to b's
// ingress port. Call twice (swapped) for a full-duplex pair.
func (tp *Topology) ConnectMachines(a *Node, aPort int, b *Node, bPort int, latency sim.Time) error {
	if err := tp.checkLatency(a.shard, b.shard, latency); err != nil {
		return err
	}
	return a.M.NIC.Egress(aPort).ConnectNIC(b.M.NIC, bPort, latency, b.M.Faults, sched(a.shard, b.shard))
}

// ConnectMachineToRouter points a machine's egress port at the router.
func (tp *Topology) ConnectMachineToRouter(n *Node, port int, r *Router, latency sim.Time) error {
	if err := tp.checkLatency(n.shard, r.shard, latency); err != nil {
		return err
	}
	n.M.NIC.Egress(port).ConnectFunc(latency, r.receive, sched(n.shard, r.shard))
	return nil
}

// ConnectRouterToMachine attaches a new output port on the router wired to
// a machine's ingress port, returning the output port index (what the
// router's route function must produce to reach this machine).
func (tp *Topology) ConnectRouterToMachine(r *Router, n *Node, port int, gbps float64, latency sim.Time) (int, error) {
	if err := tp.checkLatency(r.shard, n.shard, latency); err != nil {
		return 0, err
	}
	out := len(r.ports)
	l := device.NewLink(fmt.Sprintf("router%d-out%d", r.shard.ID(), out), r.se, gbps)
	if err := l.ConnectNIC(n.M.NIC, port, latency, n.M.Faults, sched(r.shard, n.shard)); err != nil {
		return 0, err
	}
	r.ports = append(r.ports, l)
	return out, nil
}

// Run advances every machine and router to the given simulated time.
func (tp *Topology) Run(until sim.Time) { tp.cluster.Run(until) }

// Close releases every machine's simulated-RAM backing.
func (tp *Topology) Close() {
	for _, n := range tp.nodes {
		n.M.Close()
	}
}
