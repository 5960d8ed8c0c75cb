// Package workloads implements the load generators of the paper's
// evaluation: netperf TCP_STREAM (RX/TX/bidirectional, single- and
// multi-core), memcached+memslap, the Graph500 BFS co-runner, fio over
// NVMe, the XOR netfilter callback, and the kernel-compile allocator
// stress. Each drives a testbed.Machine and reports calibrated
// measurements.
package workloads

import (
	"fmt"
	"net/netip"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// NetperfConfig describes one TCP_STREAM experiment.
type NetperfConfig struct {
	Machine *testbed.Machine
	// RXCores / TXCores pin one netperf instance per entry (an entry may
	// repeat a core: the single-core test runs 4 instances on core 0).
	RXCores []int
	TXCores []int
	// Duration of the measurement window; Warmup precedes it.
	Duration sim.Time
	Warmup   sim.Time
	// ExtraCycles is the per-segment workload overhead of this scenario
	// (multi-instance cache/scheduler effects; see EXPERIMENTS.md).
	ExtraCycles float64
	// Wakeup charges blocked-reader/writer wakeups per segment.
	Wakeup bool
	// Bidirectional runs add ACK competition (§6.1).
	bidir bool
}

// NetperfResult is one row of a throughput figure.
type NetperfResult struct {
	Scheme    string
	RXGbps    float64
	TXGbps    float64
	TotalGbps float64
	// CPUUtil is the fraction of all-core capacity consumed (one core at
	// 100% on the 28-core machine reports as 3.57%).
	CPUUtil float64
	// MemBWGBps is average memory-controller traffic.
	MemBWGBps float64
}

// Generator models the remote traffic-generation machine of §6: it offers
// unlimited load on one flow, paced only by the wire and by flow control
// (ring backpressure).
type Generator struct {
	ma      *testbed.Machine
	port    int
	ring    int
	flow    int
	segLen  int
	src     netip.Addr
	dst     netip.Addr
	hash    uint32
	seq     uint32
	stopped bool
	// pumpFn is pump bound once, so re-arming the poll allocates nothing.
	pumpFn func()
}

// newGen builds the flow identity shared by both generator flavours: the
// 4-tuple, its headers' RSS hash (what the NIC's hash unit computes from
// the wire bytes), and the segment template.
func newGen(ma *testbed.Machine, port, flow, segLen int) *Generator {
	g := &Generator{
		ma: ma, port: port, flow: flow, segLen: segLen,
		src: netip.AddrFrom4([4]byte{192, 168, byte(flow >> 8), byte(flow)}),
		dst: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
	g.hash = netstack.RSSHashIPv4(g.src, g.dst, uint16(10000+g.flow), 5001)
	g.pumpFn = g.pump
	return g
}

// NewGenerator builds a pinned traffic source for one flow: segments of
// segLen arrive on port and are directed to ring by an exact-match flow
// steering rule (the aRFS analogue), so the flow lands on the core its
// netperf instance is pinned to. Each segment carries a real
// Ethernet/IPv4/TCP header stack, so firewall hooks parse genuine protocol
// bytes. An out-of-range ring surfaces as an error.
func NewGenerator(ma *testbed.Machine, port, ring, flow, segLen int) (*Generator, error) {
	g := newGen(ma, port, flow, segLen)
	if err := ma.NIC.SteerFlow(g.hash, ring); err != nil {
		return nil, err
	}
	g.ring = ring
	return g, nil
}

// NewRSSGenerator builds a pure-RSS traffic source: no steering rule — the
// NIC's Toeplitz hash and indirection table place the flow, and the
// generator merely learns the resulting ring for its flow-control polls
// (the scaling figure's mode: many flows spread across every ring).
func NewRSSGenerator(ma *testbed.Machine, port, flow, segLen int) *Generator {
	g := newGen(ma, port, flow, segLen)
	g.ring = ma.NIC.RingFor(g.hash)
	return g
}

// Hash reports the flow's RSS hash; Ring the RX ring its segments land on.
func (g *Generator) Hash() uint32 { return g.hash }

// Ring reports the RX ring the flow's segments are delivered to.
func (g *Generator) Ring() int { return g.ring }

const (
	// genWindow is how much wire backlog the generator keeps queued.
	genWindow = 40 * sim.Microsecond
	// genPoll is the re-arm interval.
	genPoll = 10 * sim.Microsecond
	// genParkLimit pauses injection when the ring has this many parked
	// segments (PFC pause emulation).
	genParkLimit = 8
)

// Start begins offering load.
func (g *Generator) Start() { g.pump() }

// Stop halts the generator at its next pump.
func (g *Generator) Stop() { g.stopped = true }

func (g *Generator) pump() {
	if g.stopped {
		return
	}
	se := g.ma.Sim
	nic := g.ma.NIC
	parked, err := nic.RXParked(g.ring)
	if err != nil {
		return // ring vanished under us: stop offering load
	}
	if parked < genParkLimit {
		for nic.WireRXBacklog(g.port) < genWindow {
			hdr := netstack.BuildHeaders(g.src, g.dst, uint16(10000+g.flow), 5001, g.seq, g.segLen-netstack.HeaderLen)
			g.seq += uint32(g.segLen - netstack.HeaderLen)
			nic.InjectRX(g.port, device.Segment{
				Flow: g.flow, Hash: g.hash, Len: g.segLen, Header: hdr,
			})
			if parked, err = nic.RXParked(g.ring); err != nil || parked >= genParkLimit {
				break
			}
		}
	}
	se.After(genPoll, g.pumpFn)
}

// RunNetperf executes the experiment and returns the measured row.
func RunNetperf(cfg NetperfConfig) (NetperfResult, error) {
	ma := cfg.Machine
	if ma == nil {
		return NetperfResult{}, fmt.Errorf("workloads: nil machine")
	}
	if cfg.Duration == 0 {
		cfg.Duration = 100 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 20 * sim.Millisecond
	}
	cfg.bidir = len(cfg.RXCores) > 0 && len(cfg.TXCores) > 0

	if err := ma.FillAllRings(); err != nil {
		return NetperfResult{}, err
	}

	// Receivers: one per RX instance, demuxed by flow id.
	receivers := map[int]*netstack.Receiver{}
	var gens []*Generator
	for i, core := range cfg.RXCores {
		flow := i + 1
		recv := &netstack.Receiver{
			K:           ma.Kernel,
			ExtraCycles: cfg.ExtraCycles,
			Wakeup:      cfg.Wakeup,
			AckCost:     cfg.bidir,
		}
		receivers[flow] = recv
		g, err := NewGenerator(ma, i%ma.Model.NICPorts, core, flow, ma.Model.SegmentSize)
		if err != nil {
			return NetperfResult{}, err
		}
		gens = append(gens, g)
	}
	if len(receivers) > 0 {
		ma.Driver.OnDeliver = netstack.DemuxFlows(receivers)
	}

	// Senders.
	var senders []*netstack.Sender
	for i, core := range cfg.TXCores {
		snd := &netstack.Sender{
			K: ma.Kernel, Drv: ma.Driver, Core: ma.Cores[core],
			Ring: core, PortID: i % ma.Model.NICPorts, Flow: 1000 + i,
			ExtraCycles: cfg.ExtraCycles,
			AckCost:     cfg.bidir,
			Wakeup:      cfg.Wakeup,
		}
		senders = append(senders, snd)
	}

	for _, g := range gens {
		g.Start()
	}
	for _, s := range senders {
		s.Start()
	}

	// Warmup, then measure.
	ma.Sim.Run(cfg.Warmup)
	rx0, tx0 := receivedBytes(receivers), sentBytes(senders)
	w := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + cfg.Duration)
	m := w.Close()
	res := NetperfResult{
		Scheme:    ma.SchemeName(),
		RXGbps:    m.Gbps(receivedBytes(receivers) - rx0),
		TXGbps:    m.Gbps(sentBytes(senders) - tx0),
		CPUUtil:   m.CPUUtil(),
		MemBWGBps: m.MemBWGBps(),
	}
	res.TotalGbps = res.RXGbps + res.TXGbps

	for _, g := range gens {
		g.Stop()
	}
	for _, s := range senders {
		s.Stop()
	}
	return res, nil
}

// receivedBytes is the payload every receiver has delivered so far.
func receivedBytes(receivers map[int]*netstack.Receiver) uint64 {
	var n uint64
	for _, r := range receivers {
		n += r.Bytes
	}
	return n
}

// sentBytes is the payload every sender has transmitted so far.
func sentBytes(senders []*netstack.Sender) uint64 {
	var n uint64
	for _, s := range senders {
		n += s.Bytes
	}
	return n
}
