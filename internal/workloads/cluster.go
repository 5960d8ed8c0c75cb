package workloads

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/topo"
)

// ClusterLinkLatency is the one-way propagation delay of every topology
// link — and therefore the cluster's conservative lookahead (a ~1 km
// datacenter fabric hop).
const ClusterLinkLatency = 5 * sim.Microsecond

// clusterCores is the core count of every incast and memcached-cluster
// machine.
const clusterCores int = 4

// clusterMachineCfg sizes one machine of a multi-machine topology: smaller
// than the standalone 28-core testbed (a topology keeps every machine's
// simulated RAM alive at once) but with the same per-core performance
// model, so per-scheme IOMMU costs are unchanged.
func clusterMachineCfg(scheme testbed.Scheme, seed int64, cores int) testbed.MachineConfig {
	return testbed.MachineConfig{
		Scheme:   scheme,
		Seed:     seed,
		Cores:    cores,
		MemBytes: 256 << 20,
	}
}

// clusterAddr gives every machine of a topology a distinct address for RSS
// hash derivation.
func clusterAddr(machine int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 1, byte(machine >> 8), byte(machine)})
}

// p99 returns the 99th-percentile of the samples (0 when empty). Exact:
// the workload records every latency, so no histogram resolution is lost.
func p99(samples []sim.Time) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*99 + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// ---------------------------------------------------------------------------
// Incast: S senders storm one receiver through a router.
// ---------------------------------------------------------------------------

// IncastConfig describes an incast storm: Senders machines blast full-rate
// streams through a router whose single output port drains into one
// receiver machine — the classic many-to-one congestion pattern. Every
// endpoint pays its scheme's IOMMU costs: senders on dma_map for TX,
// the receiver on dma_unmap + interposition for RX.
type IncastConfig struct {
	Scheme  testbed.Scheme
	Senders int
	// Deprecated: Workers is ignored; every topology runs its epochs on
	// one goroutine. It remains only for the benchmark module, which
	// still sets it.
	Workers  int
	Seed     int64
	Duration sim.Time
	Warmup   sim.Time
	// Inspect, when non-nil, receives every machine (placement order:
	// receiver first, then senders) after the run but before teardown —
	// the hook for cross-machine allocator conservation checks
	// (damn.Audit on both sides of the wire) and stats capture.
	Inspect func([]*testbed.Machine) error
}

// incastQueueLimit bounds the router's output-port backlog (tail-drop).
const incastQueueLimit = 100 * sim.Microsecond

// IncastResult is one row of the cluster figure's incast half.
type IncastResult struct {
	Scheme    string
	Gbps      float64 // receiver goodput over the measurement window
	P99       sim.Time
	DropFrac  float64 // router tail-drop fraction
	Delivered uint64
	Epochs    uint64
}

// RunIncast builds the topology, runs warmup + measurement, and reports
// receiver goodput, exact p99 end-to-end segment latency (sender wire-out
// to receiver delivery), and the router's drop fraction.
func RunIncast(cfg IncastConfig) (IncastResult, error) {
	if cfg.Senders <= 0 {
		cfg.Senders = 4
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 3 * sim.Millisecond
	}

	tp := topo.New(ClusterLinkLatency)
	defer tp.Close()

	recv, err := tp.AddMachine(clusterMachineCfg(cfg.Scheme, cfg.Seed*1000+1, clusterCores))
	if err != nil {
		return IncastResult{}, err
	}
	router := tp.AddRouter(cfg.Seed*1000+2, incastQueueLimit, func(device.Segment) int { return 0 })
	if _, err := tp.ConnectRouterToMachine(router, recv, 0, recv.M.Model.WireGbpsPerPort, ClusterLinkLatency); err != nil {
		return IncastResult{}, err
	}

	receivers := map[int]*netstack.Receiver{}
	var senders []*netstack.Sender
	for i := 0; i < cfg.Senders; i++ {
		node, err := tp.AddMachine(clusterMachineCfg(cfg.Scheme, cfg.Seed*1000+10+int64(i), clusterCores))
		if err != nil {
			return IncastResult{}, err
		}
		if err := tp.ConnectMachineToRouter(node, 0, router, ClusterLinkLatency); err != nil {
			return IncastResult{}, err
		}
		flow := 100 + i
		hash := netstack.RSSHashIPv4(clusterAddr(10+i), clusterAddr(1), uint16(10000+i), 5001)
		senders = append(senders, &netstack.Sender{
			K: node.M.Kernel, Drv: node.M.Driver, Core: node.M.Cores[0],
			Ring: 0, PortID: 0, Flow: flow, Hash: hash,
		})
		receivers[flow] = &netstack.Receiver{K: recv.M.Kernel}
	}

	for _, n := range tp.Nodes() {
		if err := n.M.FillAllRings(); err != nil {
			return IncastResult{}, err
		}
	}

	measuring := false
	var lats []sim.Time
	rse := recv.M.Sim
	recv.M.Driver.OnDeliver = func(t *sim.Task, ring int, skb *netstack.SKBuff) {
		r, ok := receivers[skb.Flow]
		if !ok {
			skb.Free(t)
			return
		}
		if measuring && skb.Stamp > 0 {
			lats = append(lats, rse.Now()-skb.Stamp)
		}
		r.HandleSegment(t, skb)
	}
	for _, s := range senders {
		s.Start()
	}

	tp.Run(cfg.Warmup)
	measuring = true
	var rx0 uint64
	for _, r := range receivers {
		rx0 += r.Bytes
	}
	fwd0, drop0 := router.Forwarded, router.Dropped
	t0 := tp.Cluster().Now()
	tp.Run(t0 + cfg.Duration)
	dt := (tp.Cluster().Now() - t0).Seconds()

	var rx uint64
	for _, r := range receivers {
		rx += r.Bytes
	}
	rx -= rx0
	fwd, drop := router.Forwarded-fwd0, router.Dropped-drop0
	res := IncastResult{
		Scheme:    string(cfg.Scheme),
		Gbps:      float64(rx) * 8 / dt / 1e9,
		P99:       p99(lats),
		Delivered: rx,
		Epochs:    tp.Cluster().Epochs(),
	}
	if fwd+drop > 0 {
		res.DropFrac = float64(drop) / float64(fwd+drop)
	}
	for _, s := range senders {
		s.Stop()
	}
	if err := inspect(cfg.Inspect, tp); err != nil {
		return res, err
	}
	return res, nil
}

// inspect hands every machine of the topology (placement order) to the
// caller's hook before teardown.
func inspect(fn func([]*testbed.Machine) error, tp *topo.Topology) error {
	if fn == nil {
		return nil
	}
	ms := make([]*testbed.Machine, 0, len(tp.Nodes()))
	for _, n := range tp.Nodes() {
		ms = append(ms, n.M)
	}
	return fn(ms)
}

// ---------------------------------------------------------------------------
// Memcached cluster: clients → load-balancing router → servers.
// ---------------------------------------------------------------------------

// Request metadata rides in Segment.Meta (the application header bytes the
// simulation doesn't materialise): direction, op, client, server, and a
// request id matching responses back to their issue times.
const (
	mcDirBit   = 1 << 31 // response
	mcSetBit   = 1 << 30 // SET (else GET)
	mcReqBits  = 14
	mcReqMask  = 1<<mcReqBits - 1
	mcReqBytes = 256
)

const (
	// mcDepth is the outstanding requests per client.
	mcDepth int = 4
	// mcValueBytes is the GET response / SET request value size.
	mcValueBytes int = 16 << 10
)

func mcEncode(set bool, client, server int, reqid uint32) uint32 {
	m := uint32(client)<<22 | uint32(server)<<mcReqBits | (reqid & mcReqMask)
	if set {
		m |= mcSetBit
	}
	return m
}

func mcClientOf(m uint32) int { return int(m>>22) & 0xff }
func mcServerOf(m uint32) int { return int(m>>mcReqBits) & 0xff }

// MemcachedClusterConfig describes the distributed memcached scenario: C
// client machines issue closed-loop GET/SET requests (mcDepth outstanding
// each, ~10 µs think time) through a load-balancing router to S server
// machines; responses return through the same router. Requests and
// responses are single segments, so a GET costs the client one TX dma_map
// and the server one RX unmap plus one value-sized TX map — the two-sided
// IOMMU tax the figure measures.
type MemcachedClusterConfig struct {
	Scheme  testbed.Scheme
	Clients int
	Servers int
	// Deprecated: Workers is ignored, as IncastConfig.Workers is.
	Workers  int
	Seed     int64
	Duration sim.Time
	Warmup   sim.Time
	// Inspect, when non-nil, receives every machine (placement order:
	// servers first, then clients) after the run but before teardown.
	Inspect func([]*testbed.Machine) error
}

// MemcachedClusterResult is the cluster figure's memcached half.
type MemcachedClusterResult struct {
	Scheme  string
	KOps    float64 // completed requests per second / 1000
	P99     sim.Time
	Ops     uint64
	TxDrops uint64 // requests/responses lost to full TX rings
}

type mcClient struct {
	node  *topo.Node
	id    int
	hash  uint32 // responses steer here
	issue [mcReqMask + 1]sim.Time
	seq   uint32
	lats  []sim.Time
	ops   uint64
	sends uint64
	drops uint64
}

// RunMemcachedCluster executes the scenario and reports completed-request
// throughput and exact p99 request latency at the clients.
func RunMemcachedCluster(cfg MemcachedClusterConfig) (MemcachedClusterResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 2
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 2
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 3 * sim.Millisecond
	}
	if cfg.Clients > 256 || cfg.Servers > 256 {
		return MemcachedClusterResult{}, fmt.Errorf("workloads: memcached cluster is limited to 256 clients and servers")
	}

	tp := topo.New(ClusterLinkLatency)
	defer tp.Close()

	// The router's first S output ports reach the servers, the next C the
	// clients; requests route by server id, responses by client id.
	nServers := cfg.Servers
	router := tp.AddRouter(cfg.Seed*1000+2, 0, func(seg device.Segment) int {
		if seg.Meta&mcDirBit == 0 {
			return mcServerOf(seg.Meta)
		}
		return nServers + mcClientOf(seg.Meta)
	})

	type mcServer struct {
		node *topo.Node
		recv *netstack.Receiver
	}
	var servers []*mcServer
	for i := 0; i < cfg.Servers; i++ {
		node, err := tp.AddMachine(clusterMachineCfg(cfg.Scheme, cfg.Seed*1000+10+int64(i), clusterCores))
		if err != nil {
			return MemcachedClusterResult{}, err
		}
		if err := tp.ConnectMachineToRouter(node, 0, router, ClusterLinkLatency); err != nil {
			return MemcachedClusterResult{}, err
		}
		if _, err := tp.ConnectRouterToMachine(router, node, 0, node.M.Model.WireGbpsPerPort, ClusterLinkLatency); err != nil {
			return MemcachedClusterResult{}, err
		}
		servers = append(servers, &mcServer{node: node, recv: &netstack.Receiver{K: node.M.Kernel}})
	}

	var clients []*mcClient
	for i := 0; i < cfg.Clients; i++ {
		node, err := tp.AddMachine(clusterMachineCfg(cfg.Scheme, cfg.Seed*1000+100+int64(i), clusterCores))
		if err != nil {
			return MemcachedClusterResult{}, err
		}
		if err := tp.ConnectMachineToRouter(node, 0, router, ClusterLinkLatency); err != nil {
			return MemcachedClusterResult{}, err
		}
		if _, err := tp.ConnectRouterToMachine(router, node, 0, node.M.Model.WireGbpsPerPort, ClusterLinkLatency); err != nil {
			return MemcachedClusterResult{}, err
		}
		clients = append(clients, &mcClient{
			node: node, id: i,
			hash: netstack.RSSHashIPv4(clusterAddr(100+i), clusterAddr(0), uint16(20000+i), 11211),
		})
	}

	for _, n := range tp.Nodes() {
		if err := n.M.FillAllRings(); err != nil {
			return MemcachedClusterResult{}, err
		}
	}

	// Server request handling: consume the request, then send the response
	// from the same interrupt task (the memcached worker inlined — its CPU
	// cost is charged through the receiver path and the TX segment cost).
	srvHash := make([]uint32, cfg.Servers)
	for i := range srvHash {
		srvHash[i] = netstack.RSSHashIPv4(clusterAddr(200), clusterAddr(10+i), 31337, 11211)
	}
	var txDrops uint64
	for si, srv := range servers {
		srv := srv
		_ = si
		m := srv.node.M
		m.Driver.OnDeliver = func(t *sim.Task, ring int, skb *netstack.SKBuff) {
			meta := skb.Meta
			srv.recv.HandleSegment(t, skb)
			respSize := mcValueBytes // GET: the value comes back
			if meta&mcSetBit != 0 {
				respSize = mcReqBytes // SET: a small ack
			}
			out, err := netstack.AllocSKB(m.Kernel, t, m.NIC.ID(), respSize, false)
			if err != nil {
				txDrops++
				return
			}
			out.Flow = 1 + mcClientOf(meta)
			out.Hash = clients[mcClientOf(meta)].hash
			out.Meta = meta | mcDirBit
			if err := out.CopyFromUser(t, nil, respSize); err != nil {
				txDrops++
				out.Free(t)
				return
			}
			perf.Charge(t, m.Model.TXSegCycles)
			if err := m.Driver.Transmit(t, ring, 0, out); err != nil {
				txDrops++
				out.Free(t)
			}
		}
	}

	// Client side: closed-loop issue with think time; latency measured
	// from issue to response delivery.
	const thinkTime = 10 * sim.Microsecond
	measuring := false
	for _, c := range clients {
		c := c
		m := c.node.M
		se := m.Sim
		crecv := &netstack.Receiver{K: m.Kernel}
		var issueFn func(t *sim.Task)
		issueFn = func(t *sim.Task) {
			reqid := c.seq & mcReqMask
			c.seq++
			set := reqid%2 == 1
			server := int(reqid) % cfg.Servers
			size := mcReqBytes
			if set {
				size += mcValueBytes
			}
			skb, err := netstack.AllocSKB(m.Kernel, t, m.NIC.ID(), size, false)
			if err != nil {
				c.drops++
				return
			}
			skb.Flow = 1 + c.id
			skb.Hash = srvHash[server]
			skb.Meta = mcEncode(set, c.id, server, reqid)
			if err := skb.CopyFromUser(t, nil, size); err != nil {
				c.drops++
				skb.Free(t)
				return
			}
			perf.Charge(t, m.Model.TXSegCycles)
			if err := m.Driver.Transmit(t, 0, 0, skb); err != nil {
				c.drops++
				skb.Free(t)
				return
			}
			c.issue[reqid] = se.Now()
			c.sends++
		}
		m.Driver.OnDeliver = func(t *sim.Task, ring int, skb *netstack.SKBuff) {
			meta := skb.Meta
			if meta&mcDirBit == 0 {
				skb.Free(t)
				return
			}
			reqid := meta & mcReqMask
			if measuring {
				c.lats = append(c.lats, se.Now()-c.issue[reqid])
				c.ops++
			}
			crecv.HandleSegment(t, skb)
			se.After(thinkTime, func() { c.node.M.Cores[0].Submit(false, issueFn) })
		}
		for k := 0; k < mcDepth; k++ {
			c.node.M.Cores[0].Submit(false, issueFn)
		}
	}

	tp.Run(cfg.Warmup)
	measuring = true
	t0 := tp.Cluster().Now()
	tp.Run(t0 + cfg.Duration)
	dt := (tp.Cluster().Now() - t0).Seconds()

	res := MemcachedClusterResult{Scheme: string(cfg.Scheme), TxDrops: txDrops}
	var all []sim.Time
	for _, c := range clients {
		res.Ops += c.ops
		all = append(all, c.lats...)
	}
	res.KOps = float64(res.Ops) / dt / 1e3
	res.P99 = p99(all)
	if err := inspect(cfg.Inspect, tp); err != nil {
		return res, err
	}
	return res, nil
}
