package workloads

import (
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// MemcachedConfig models §6.1's memcached benchmark: one memcached instance
// per core, loaded by memslap with 50/50 GET/SET of 512 KiB values (the
// non-default sizes that make the benchmark network-bound).
type MemcachedConfig struct {
	Machine *testbed.Machine
	// ValueBytes is the value size (512 KiB in the paper).
	ValueBytes int
	Duration   sim.Time
	Warmup     sim.Time
}

// MemcachedResult is the Fig 7 row.
type MemcachedResult struct {
	Scheme  string
	TPS     float64 // operations per second, aggregated
	CPUUtil float64
}

// memcachedInstance is one server process plus its memslap loader.
type memcachedInstance struct {
	cfg   *MemcachedConfig
	ma    *testbed.Machine
	core  int
	flow  int
	hash  uint32
	ops   uint64
	seq   uint64
	stopd bool
}

const (
	// memcachedConcurrency is outstanding requests per instance (memslap
	// load).
	memcachedConcurrency int = 2
	// memcachedGetRatio is the fraction of operations that are GETs.
	memcachedGetRatio float64 = 0.5
)

// RunMemcached executes Fig 7's workload.
func RunMemcached(cfg MemcachedConfig) (MemcachedResult, error) {
	ma := cfg.Machine
	if cfg.ValueBytes == 0 {
		cfg.ValueBytes = 512 << 10
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 15 * sim.Millisecond
	}
	if err := ma.FillAllRings(); err != nil {
		return MemcachedResult{}, err
	}

	// Instance order is simulation-visible (it decides the seq numbers of
	// the initial request storm), so keep instances in a slice and use the
	// map only for flow lookup — ranging over the map here would make runs
	// irreproducible. There is one memcached process per core.
	instances := make([]*memcachedInstance, 0, len(ma.Cores))
	byFlow := map[int]*memcachedInstance{}
	for i := 0; i < len(ma.Cores); i++ {
		inst := &memcachedInstance{cfg: &cfg, ma: ma, core: i, flow: i + 1}
		// Memcached frames are not TCP/IPv4, so the NIC's hash unit falls
		// back to the flow hash; an aRFS rule pins each instance's flow to
		// the ring (= core) the server thread runs on.
		inst.hash = netstack.RSSFlowHash(inst.flow)
		if err := ma.NIC.SteerFlow(inst.hash, inst.core); err != nil {
			return MemcachedResult{}, err
		}
		instances = append(instances, inst)
		byFlow[inst.flow] = inst
	}

	// Request arrival: memslap sends a request segment; the server's RX
	// path processes it and transmits the response; response completion
	// triggers the next request on that slot.
	ma.Driver.OnDeliver = func(t *sim.Task, ring int, skb *netstack.SKBuff) {
		inst, ok := byFlow[skb.Flow]
		if !ok {
			skb.Free(t)
			return
		}
		inst.handleRequest(t, skb)
	}

	for _, inst := range instances {
		for s := 0; s < memcachedConcurrency; s++ {
			inst.sendRequest()
		}
	}

	ma.Sim.Run(cfg.Warmup)
	var ops0 uint64
	for _, inst := range instances {
		ops0 += inst.ops
	}
	w := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + cfg.Duration)
	m := w.Close()

	var ops uint64
	for _, inst := range instances {
		inst.stopd = true
		ops += inst.ops
	}
	return MemcachedResult{
		Scheme:  ma.SchemeName(),
		TPS:     m.PerSec(ops - ops0),
		CPUUtil: m.CPUUtil(),
	}, nil
}

// sendRequest injects the client's request. A GET request is small; a SET
// carries the full value inbound.
func (in *memcachedInstance) sendRequest() {
	if in.stopd {
		return
	}
	in.seq++
	isGet := float64(in.seq%100)/100.0 < memcachedGetRatio
	segSize := in.ma.Model.SegmentSize
	port := in.flow % in.ma.Model.NICPorts

	inject := func(n int) {
		for n > 0 {
			l := n
			if l > segSize {
				l = segSize
			}
			hdr := make([]byte, 64)
			if isGet {
				hdr[0] = 'G'
			} else {
				hdr[0] = 'S'
			}
			in.ma.NIC.InjectRX(port, device.Segment{Flow: in.flow, Hash: in.hash, Len: l, Header: hdr})
			n -= l
		}
	}
	if isGet {
		inject(256) // "get <key>\r\n"
	} else {
		inject(256 + in.cfg.ValueBytes) // SET carries the value
	}
}

// handleRequest is the server's RX path for one request segment; the last
// segment of a request triggers the response.
func (in *memcachedInstance) handleRequest(t *sim.Task, skb *netstack.SKBuff) {
	m := in.ma.Model
	perf.Charge(t, m.RXSegCycles)
	hdr, _ := skb.Access(t, 64)
	isGet := len(hdr) > 0 && hdr[0] == 'G'
	skb.CopyToUser(t, skb.Len())
	last := isGet || skb.Len() < m.SegmentSize // GETs are single-segment; a short SET segment is the tail
	skb.Free(t)
	if !last {
		return
	}
	// Server-side op processing, then the response.
	perf.Charge(t, m.MemcachedOpCycles)
	respBytes := 128
	if isGet {
		respBytes = in.cfg.ValueBytes
	}
	in.transmitResponse(t, respBytes)
}

// memcachedChunk is the item-chunk granularity of a large memcached value:
// a 512 KiB value is assembled from many slab chunks, so its response goes
// down as a scatter/gather list with one DMA mapping per chunk — the "IOTLB
// invalidation rate caused by TX traffic" that cripples strict in Fig 7.
const memcachedChunk = 4096

// memcachedChunkCycles is the per-chunk kernel cost on the TX path (far
// below a full TSO segment's cost: no separate syscall or TCP work).
const memcachedChunkCycles = 900

// transmitResponse sends the response as item-chunk segments; the last
// completion counts the op and lets memslap issue the next request.
func (in *memcachedInstance) transmitResponse(t *sim.Task, n int) {
	m := in.ma.Model
	chunk := memcachedChunk
	segs := (n + chunk - 1) / chunk
	sent := 0
	for i := 0; i < segs; i++ {
		l := n - sent
		if l > chunk {
			l = chunk
		}
		sent += l
		skb, err := netstack.AllocSKB(in.ma.Kernel, t, in.ma.NIC.ID(), l, false)
		if err != nil {
			return
		}
		skb.Flow = in.flow
		skb.CopyFromUser(t, nil, l)
		perf.Charge(t, memcachedChunkCycles)
		if i == 0 {
			perf.Charge(t, m.TXSegCycles)
		}
		last := i == segs-1
		skb.Owner = txCallback(func(t2 *sim.Task, done *netstack.SKBuff) {
			done.Free(t2)
			if last {
				in.ops++
				// Client thinks, then sends the next request.
				in.ma.Sim.After(5*sim.Microsecond, in.sendRequest)
			}
		})
		if err := in.ma.Driver.Transmit(t, in.core, in.flow%in.ma.Model.NICPorts, skb); err != nil {
			// TX ring full: abandon the response but keep the memslap
			// slot alive (the client would time out and retry).
			skb.Free(t)
			in.ma.Sim.After(50*sim.Microsecond, in.sendRequest)
			return
		}
	}
}

// txCallback adapts a func to the skb Owner completion dispatch.
type txCallback func(t *sim.Task, skb *netstack.SKBuff)

// TxDone implements the completion hook used by DispatchTxDone.
func (f txCallback) TxDone(t *sim.Task, skb *netstack.SKBuff) { f(t, skb) }
