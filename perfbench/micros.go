package main

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"time"

	damncore "github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// Micro sampling. Every micro takes microSamples timed samples of a batch
// of operations sized to about microSampleTarget; with 100 samples, p90 is
// the highest percentile with at least ten samples beyond it.
const (
	microSamples      = 100
	microTailPct      = 90
	microSampleTarget = time.Millisecond
	microWarmup       = 20 * time.Millisecond
)

// rig is the state one micro runs on. op is the timed operation; prepare
// and finish, when set, run untimed around each sample's batch of n ops,
// and maxBatch, when set, caps n.
type rig struct {
	op       func() error
	prepare  func(n int) error
	finish   func() error
	close    func()
	maxBatch int
}

// micro names one layer function and builds the smallest rig it runs on.
type micro struct {
	name  string
	build func() (rig, error)
}

// microResult is one micro's summary.
type microResult struct {
	medianNs, tailNs, mallocs float64
}

// runMicros runs every micro, each sample inside a traced span, and returns
// the per-layer metrics they produce.
func runMicros(ctx context.Context, tr *tracer) (map[string]metric, error) {
	ms := map[string]metric{
		"micro.samples": {microSamples, "count"},
	}
	for _, m := range micros() {
		res, err := runMicro(ctx, tr, m)
		if err != nil {
			return nil, fmt.Errorf("micro %s: %w", m.name, err)
		}
		ms[m.name+".ns"] = metric{res.medianNs, "ns/op"}
		ms[fmt.Sprintf("%s.p%d_ns", m.name, microTailPct)] = metric{res.tailNs, "ns/op"}
		ms[m.name+".mallocs"] = metric{res.mallocs, "mallocs/op"}
	}
	return ms, nil
}

func runMicro(ctx context.Context, tr *tracer, m micro) (microResult, error) {
	r, err := m.build()
	if err != nil {
		return microResult{}, err
	}
	if r.close != nil {
		defer r.close()
	}
	capped := func(n int) int {
		if r.maxBatch > 0 {
			return min(n, r.maxBatch)
		}
		return n
	}
	batch := func(n int) (time.Duration, uint64, error) {
		if r.prepare != nil {
			if err := r.prepare(n); err != nil {
				return 0, 0, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := r.op(); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if r.finish != nil {
			if err := r.finish(); err != nil {
				return 0, 0, err
			}
		}
		return d, m1.Mallocs - m0.Mallocs, nil
	}
	// Warm pools and caches, and size the batch from the warm-up rate.
	var ops int
	var spent time.Duration
	for n := 1; spent < microWarmup; n = capped(2 * n) {
		d, _, err := batch(n)
		if err != nil {
			return microResult{}, err
		}
		ops += n
		spent += d
	}
	n := 1
	if per := spent / time.Duration(ops); per > 0 && per < microSampleTarget {
		n = capped(int(microSampleTarget / per))
	}
	perOp := make([]float64, 0, microSamples)
	var mallocs uint64
	for s := 0; s < microSamples; s++ {
		var d time.Duration
		var a uint64
		tr.do(ctx, "micro", m.name, func(context.Context) { d, a, err = batch(n) })
		if err != nil {
			return microResult{}, err
		}
		perOp = append(perOp, float64(d.Nanoseconds())/float64(n))
		mallocs += a
	}
	sort.Float64s(perOp)
	return microResult{
		medianNs: median(perOp),
		tailNs:   perOp[microSamples*microTailPct/100-1],
		mallocs:  float64(mallocs) / float64(microSamples*n),
	}, nil
}

// micros lists the layer micros. Each calls one layer's public functions on
// the smallest rig the API allows: a bare engine, cluster, memory, IOMMU or
// allocator where the layer stands alone, a one-core machine where it needs
// the kernel around it.
func micros() []micro {
	ms := []micro{
		{"sim.event", simEvent},
		{"sim.task", simTask},
		{"sim.epoch", simEpoch},
		{"netstack.rx_segment", rxSegment},
		{"netstack.copy_to_user_64k", copyToUser64K},
		{"mem.new_1g", memNew1G},
		{"testbed.new_machine", newMachine},
		{"iommu.translate", iommuTranslate},
		{"iommu.dma_write_4k", iommuDMAWrite4K},
		{"iova.alloc_free", iovaAllocFree},
		{"damn.alloc_free", damnAllocFree},
		{"device.vq_post_harvest", vqPostHarvest},
		{"stats.observe", statsObserve},
	}
	for _, s := range testbed.AllSchemes {
		ms = append(ms, micro{"dmaapi.map_unmap." + string(s), func() (rig, error) { return mapUnmap(s) }})
	}
	return ms
}

// microBuf is the buffer size of the map/unmap, DAMN and DMA micros: one
// 4 KiB page, the scatter/gather chunk memcached responses map.
const microBuf = 4096

func simEvent() (rig, error) {
	e := sim.NewEngine(1)
	fn := func() {}
	return rig{op: func() error {
		e.After(sim.Microsecond, fn)
		e.RunUntilIdle()
		return nil
	}}, nil
}

func simTask() (rig, error) {
	e := sim.NewEngine(1)
	c := sim.NewCore(e, 0, 0, perf.Default28Core().CoreHz)
	task := func(t *sim.Task) { t.Charge(1000) }
	return rig{op: func() error {
		c.Submit(false, task)
		e.RunUntilIdle()
		return nil
	}}, nil
}

// simEpoch runs one conservative-parallel epoch of two shards on two host
// workers. Each shard fires one local event per epoch that sends one
// message to the other shard: two events per shard per epoch, the density
// of the cluster mix.
func simEpoch() (rig, error) {
	look := workloads.ClusterLinkLatency
	c := sim.NewCluster(look, 2)
	a, b := c.AddShard(1), c.AddShard(2)
	noop := func() {}
	for _, pair := range [][2]*sim.Shard{{a, b}, {b, a}} {
		src, dst := pair[0], pair[1]
		src.Engine().Every(look, func() { src.Send(dst, src.Engine().Now()+look, noop) })
	}
	return rig{op: func() error {
		c.Run(c.Now() + look)
		return nil
	}}, nil
}

// smallMachine is the smallest machine the kernel path runs on: one core,
// 64 MiB, an 8-descriptor ring.
func smallMachine(scheme testbed.Scheme, noNIC bool) (*testbed.Machine, error) {
	return testbed.NewMachine(testbed.MachineConfig{
		Scheme: scheme, MemBytes: 64 << 20, Cores: 1, RingSize: 8, Seed: 1, NoNIC: noNIC,
	})
}

var (
	microSrc = netip.AddrFrom4([4]byte{192, 168, 0, 1})
	microDst = netip.AddrFrom4([4]byte{10, 0, 0, 1})
)

// rxSegment receives one 64 KiB LRO segment under DAMN: wire, DMA through
// the IOMMU, interrupt, driver, header access, user copy and buffer refill.
func rxSegment() (rig, error) {
	ma, err := smallMachine(testbed.SchemeDAMN, false)
	if err != nil {
		return rig{}, err
	}
	seg := ma.Model.SegmentSize
	recv := &netstack.Receiver{K: ma.Kernel}
	ma.Driver.OnDeliver = func(t *sim.Task, ring int, skb *netstack.SKBuff) { recv.HandleSegment(t, skb) }
	if err := ma.FillAllRings(); err != nil {
		ma.Close()
		return rig{}, err
	}
	hdr := netstack.BuildHeaders(microSrc, microDst, 10000, 5001, 0, seg-netstack.HeaderLen)
	hash := netstack.RSSHashIPv4(microSrc, microDst, 10000, 5001)
	return rig{
		op: func() error {
			before := recv.Segments
			ma.NIC.InjectRX(0, device.Segment{Flow: 1, Hash: hash, Len: seg, Header: hdr})
			ma.Sim.RunUntilIdle()
			if recv.Segments != before+1 {
				return fmt.Errorf("segment not delivered (%d dropped)", recv.Dropped)
			}
			return nil
		},
		close: ma.Close,
	}, nil
}

// copyToUser64K is the user-boundary copy of a received 64 KiB segment whose
// device wrote only the headers: the copy materialises the header bytes and
// clears the rest of the user buffer.
func copyToUser64K() (rig, error) {
	ma, err := smallMachine(testbed.SchemeDAMN, false)
	if err != nil {
		return rig{}, err
	}
	const n = 64 << 10
	var skbs []*netstack.SKBuff
	next := 0
	return rig{
		prepare: func(k int) error {
			for i := 0; i < k; i++ {
				skb, err := netstack.AllocSKB(ma.Kernel, nil, ma.NIC.ID(), n, true)
				if err != nil {
					return err
				}
				skb.SetReceived(n, netstack.HeaderLen)
				skbs = append(skbs, skb)
			}
			next = 0
			return nil
		},
		op: func() error {
			if got := len(skbs[next].CopyToUser(nil, n)); got != n {
				return fmt.Errorf("copied %d bytes, want %d", got, n)
			}
			next++
			return nil
		},
		finish: func() error {
			for _, skb := range skbs {
				skb.Free(nil)
			}
			skbs = skbs[:0]
			return nil
		},
		close:    ma.Close,
		maxBatch: 128, // 8 MiB of skbs on the 64 MiB machine
	}, nil
}

func memNew1G() (rig, error) {
	return rig{op: func() error {
		m, err := mem.New(mem.Config{TotalBytes: 1 << 30, NUMANodes: 2})
		if err != nil {
			return err
		}
		m.Release()
		return nil
	}}, nil
}

// newMachine builds and closes the 1 GiB, 28-core DAMN machine of the
// bidirectional and memcached mixes.
func newMachine() (rig, error) {
	cfg := machineCfg(testbed.SchemeDAMN, 1, 1<<30)
	return rig{op: func() error {
		ma, err := testbed.NewMachine(cfg)
		if err != nil {
			return err
		}
		ma.Close()
		return nil
	}}, nil
}

// iommuRig is memory plus an IOMMU with one device whose domain maps one
// page at microIOVA.
func iommuRig() (*mem.Memory, *iommu.IOMMU, error) {
	m, err := mem.New(mem.Config{TotalBytes: 16 << 20, NUMANodes: 1})
	if err != nil {
		return nil, nil, err
	}
	u := iommu.New(m)
	u.AttachDevice(testbed.NICDeviceID)
	pg, err := m.AllocPages(0, 0)
	if err != nil {
		m.Release()
		return nil, nil, err
	}
	if err := u.Map(testbed.NICDeviceID, microIOVA, pg.PFN().Addr(), mem.PageSize, iommu.PermRW); err != nil {
		m.Release()
		return nil, nil, err
	}
	return m, u, nil
}

const microIOVA = iommu.IOVA(0x1000_0000)

func iommuTranslate() (rig, error) {
	m, u, err := iommuRig()
	if err != nil {
		return rig{}, err
	}
	return rig{op: func() error {
		_, err := u.Translate(testbed.NICDeviceID, microIOVA, true)
		return err
	}, close: m.Release}, nil
}

func iommuDMAWrite4K() (rig, error) {
	m, u, err := iommuRig()
	if err != nil {
		return rig{}, err
	}
	payload := make([]byte, microBuf)
	return rig{op: func() error {
		_, err := u.DMAWrite(testbed.NICDeviceID, microIOVA, payload)
		return err
	}, close: m.Release}, nil
}

func iovaAllocFree() (rig, error) {
	a := iova.NewAPIAllocator()
	return rig{op: func() error {
		v, err := a.Alloc(microBuf)
		if err != nil {
			return err
		}
		return a.Free(v)
	}}, nil
}

func damnAllocFree() (rig, error) {
	m, err := mem.New(mem.Config{TotalBytes: 64 << 20, NUMANodes: 1})
	if err != nil {
		return rig{}, err
	}
	u := iommu.New(m)
	u.AttachDevice(testbed.NICDeviceID)
	d, err := damncore.New(m, u, perf.Default28Core(), damncore.DefaultConfig([]int{0}))
	if err != nil {
		m.Release()
		return rig{}, err
	}
	ctx := damncore.Ctx{}
	return rig{op: func() error {
		pa, err := d.Alloc(ctx, testbed.NICDeviceID, iommu.PermWrite, microBuf)
		if err != nil {
			return err
		}
		return d.Free(ctx, pa)
	}, close: m.Release}, nil
}

// mapUnmap is one dma_map + dma_unmap of a 4 KiB buffer under a scheme, on
// a one-core machine without a NIC.
func mapUnmap(scheme testbed.Scheme) (rig, error) {
	ma, err := smallMachine(scheme, true)
	if err != nil {
		return rig{}, err
	}
	pa, damnOwned, err := ma.Kernel.AllocBuffer(nil, testbed.NICDeviceID, iommu.PermWrite, microBuf)
	if err != nil {
		ma.Close()
		return rig{}, err
	}
	return rig{
		op: func() error {
			v, err := ma.DMA.Map(nil, testbed.NICDeviceID, pa, microBuf, dmaapi.FromDevice)
			if err != nil {
				return err
			}
			return ma.DMA.Unmap(nil, testbed.NICDeviceID, v, microBuf, dmaapi.FromDevice)
		},
		close: func() {
			_ = ma.Kernel.FreeBuffer(nil, pa, damnOwned) // the machine is discarded next
			ma.Close()
		},
	}, nil
}

// vqPostHarvest is one receive through a poll-mode virtqueue on a bare
// NIC: post the avail descriptor, land a 64 KiB segment by DMA through a
// protected domain, publish the used element, harvest it. No machine, no
// driver, no poll ticker.
func vqPostHarvest() (rig, error) {
	const dev = testbed.BypassDeviceID
	model := perf.Default28Core()
	se := sim.NewEngine(1)
	m, err := mem.New(mem.Config{TotalBytes: 16 << 20, NUMANodes: 1})
	if err != nil {
		return rig{}, err
	}
	u := iommu.New(m)
	u.AttachDevice(dev)
	pg, err := m.AllocPages(mem.HugePageShift-mem.PageShift, 0)
	if err != nil {
		m.Release()
		return rig{}, err
	}
	pa := pg.PFN().Addr()
	if err := u.MapHuge(dev, iommu.IOVA(pa), pa, iommu.PermRW); err != nil {
		m.Release()
		return rig{}, err
	}
	membw := sim.NewMemController(model.MemBWBytesPerSec)
	membw.Attach(se)
	core := sim.NewCore(se, 0, 0, model.CoreHz)
	nic := device.NewNIC(se, u, model, membw, []*sim.Core{core}, device.NICConfig{
		ID: dev, Ports: 1, RingSize: 8, TxRing: 8, Rings: 1,
		WireGbps: model.WireGbpsPerPort, PCIeGbps: model.PCIeGbpsPerDir,
	})
	seg := model.SegmentSize
	vq := device.NewVirtqueue(se, u, dev, iommu.IOVA(pa)+iommu.IOVA(seg))
	if err := nic.AttachVirtqueue(0, vq); err != nil {
		m.Release()
		return rig{}, err
	}
	desc := device.RXDesc{IOVA: iommu.IOVA(pa), Size: seg}
	hdr := netstack.BuildHeaders(microSrc, microDst, 10000, 5001, 0, seg-netstack.HeaderLen)
	out := make([]device.RXCompletion, 1)
	return rig{op: func() error {
		if err := nic.PostRX(0, desc); err != nil {
			return err
		}
		nic.InjectRX(0, device.Segment{Flow: 1, Len: seg, Header: hdr})
		se.RunUntilIdle()
		if n := vq.Harvest(out); n != 1 || out[0].Written == 0 {
			return fmt.Errorf("harvested %d completions (publish faults %d)", n, vq.PublishFaults)
		}
		return nil
	}, close: m.Release}, nil
}

// statsObserve is one histogram observation: the mutex-guarded call every
// simulated task makes.
func statsObserve() (rig, error) {
	h := stats.NewRegistry().Histogram("perfbench", "observe")
	v := 1.0
	return rig{op: func() error {
		h.Observe(v)
		v = v*1.7 + 1
		if v > 1e12 {
			v = 1
		}
		return nil
	}}, nil
}
