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

// flowID is one generated flow's identity, shared by both generator
// flavours: the 4-tuple, its headers' RSS hash (what the NIC's hash unit
// computes from the wire bytes), the port it arrives on and the RX ring
// it lands on.
type flowID struct {
	port     int
	ring     int
	flow     int
	src, dst netip.Addr
	hash     uint32
}

// dport is every generated flow's TCP destination port.
const dport = 5001

func newFlowID(port, flow int) flowID {
	f := flowID{
		port: port, flow: flow,
		src: netip.AddrFrom4([4]byte{192, 168, byte(flow >> 8), byte(flow)}),
		dst: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
	f.hash = netstack.RSSHashIPv4(f.src, f.dst, f.sport(), dport)
	return f
}

// sport is the flow's TCP source port.
func (f *flowID) sport() uint16 { return uint16(10000 + f.flow) }

// steer installs an exact-match flow steering rule (the aRFS analogue)
// that directs the flow to ring. An out-of-range ring surfaces as an
// error.
func (f *flowID) steer(ma *testbed.Machine, ring int) error {
	if err := ma.NIC.SteerFlow(f.hash, ring); err != nil {
		return err
	}
	f.ring = ring
	return nil
}

// Ring reports the RX ring the flow's segments are delivered to.
func (f *flowID) Ring() int { return f.ring }

// Generator models the remote traffic-generation machine of §6: it offers
// unlimited load on one flow, paced only by the wire and by flow control
// (ring backpressure).
type Generator struct {
	flowID
	ma      *testbed.Machine
	segLen  int
	seq     uint32
	stopped bool
	// pumpFn is pump bound once, so re-arming the poll allocates nothing.
	pumpFn func()
}

func newGen(ma *testbed.Machine, port, flow, segLen int) *Generator {
	g := &Generator{flowID: newFlowID(port, flow), ma: ma, segLen: segLen}
	g.pumpFn = g.pump
	return g
}

// NewGenerator builds a pinned traffic source for one flow: segments of
// segLen arrive on port and are steered to ring, so the flow lands on the
// core its netperf instance is pinned to. Each segment carries a real
// Ethernet/IPv4/TCP header stack, so firewall hooks parse genuine protocol
// bytes.
func NewGenerator(ma *testbed.Machine, port, ring, flow, segLen int) (*Generator, error) {
	g := newGen(ma, port, flow, segLen)
	if err := g.steer(ma, ring); err != nil {
		return nil, err
	}
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
			hdr := netstack.BuildHeaders(g.src, g.dst, g.sport(), dport, g.seq, g.segLen-netstack.HeaderLen)
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
	tr, err := startNetperf(cfg)
	if err != nil {
		return NetperfResult{}, err
	}

	// Warmup, then measure.
	ma.Sim.Run(cfg.Warmup)
	rx0, tx0 := receivedBytes(tr.receivers), sentBytes(tr.senders)
	w := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + cfg.Duration)
	m := w.Close()
	res := NetperfResult{
		Scheme:    ma.SchemeName(),
		RXGbps:    m.Gbps(receivedBytes(tr.receivers) - rx0),
		TXGbps:    m.Gbps(sentBytes(tr.senders) - tx0),
		CPUUtil:   m.CPUUtil(),
		MemBWGBps: m.MemBWGBps(),
	}
	res.TotalGbps = res.RXGbps + res.TXGbps

	for _, g := range tr.gens {
		g.Stop()
	}
	for _, s := range tr.senders {
		s.Stop()
	}
	return res, nil
}

// netperfTraffic is a started netperf: one receiver per RX instance,
// keyed by flow id, with the generator that feeds it, and one sender per
// TX instance.
type netperfTraffic struct {
	receivers map[int]*netstack.Receiver
	gens      []*Generator
	senders   []*netstack.Sender
}

// startNetperf fills the machine's rings, builds cfg's flows, demuxes
// deliveries by flow id and starts every generator and sender. RX
// instance i is flow i+1 on port i mod ports, steered to its core's ring;
// TX instance i is flow 1000+i on port i mod ports. Runs with both
// directions add ACK competition (§6.1).
func startNetperf(cfg NetperfConfig) (*netperfTraffic, error) {
	ma := cfg.Machine
	bidir := len(cfg.RXCores) > 0 && len(cfg.TXCores) > 0
	if err := ma.FillAllRings(); err != nil {
		return nil, err
	}
	tr := &netperfTraffic{receivers: map[int]*netstack.Receiver{}}
	for i, core := range cfg.RXCores {
		flow := i + 1
		tr.receivers[flow] = &netstack.Receiver{
			K:           ma.Kernel,
			ExtraCycles: cfg.ExtraCycles,
			Wakeup:      cfg.Wakeup,
			AckCost:     bidir,
		}
		g, err := NewGenerator(ma, i%ma.Model.NICPorts, core, flow, ma.Model.SegmentSize)
		if err != nil {
			return nil, err
		}
		tr.gens = append(tr.gens, g)
	}
	if len(tr.receivers) > 0 {
		ma.Driver.OnDeliver = netstack.DemuxFlows(tr.receivers)
	}
	for i, core := range cfg.TXCores {
		tr.senders = append(tr.senders, &netstack.Sender{
			K: ma.Kernel, Drv: ma.Driver, Core: ma.Cores[core],
			Ring: core, PortID: i % ma.Model.NICPorts, Flow: 1000 + i,
			ExtraCycles: cfg.ExtraCycles,
			AckCost:     bidir,
			Wakeup:      cfg.Wakeup,
		})
	}
	for _, g := range tr.gens {
		g.Start()
	}
	for _, s := range tr.senders {
		s.Start()
	}
	return tr, nil
}

// splitCores is the bidirectional split of an n-core machine: the first
// half of the cores receive, the rest send.
func splitCores(n int) (rx, tx []int) {
	rx = make([]int, n/2)
	tx = make([]int, n-n/2)
	for i := range rx {
		rx[i] = i
	}
	for i := range tx {
		tx[i] = len(rx) + i
	}
	return rx, tx
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
