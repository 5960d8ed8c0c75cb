package netstack

import (
	"fmt"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/sim"
)

// BypassDriver is the kernel-bypass data path: a user-space, DPDK-style
// polling driver owning one NIC RX ring through a virtio-style split queue.
// It never takes a completion interrupt — a dedicated core busy-polls the
// used ring on a fixed tick, harvesting completions in bursts and reposting
// descriptors in batches behind a single doorbell. Buffers come from a
// hugepage pool carved once at setup and mapped forever:
//
//   - bypass-raw: the pool lives in a passthrough domain (permanent identity
//     mappings, no IOMMU protection) — the classic DPDK deployment.
//   - bypass-prot: the same pool behind a per-app IOMMU domain whose
//     mappings are registered once at setup (two hugepage PTEs cover pool
//     and rings), so protection costs IOTLB pressure, not map/unmap calls.
//
// Either way the per-packet host path allocates nothing and issues no
// syscalls; the poll core is charged its full spin interval even when the
// used ring is empty, so idle busy-poll burn shows up in CPU/MB accounting.
type BypassDriver struct {
	k    *Kernel
	nic  *device.NIC
	ring int
	dev  int
	core *sim.Core
	vq   *device.Virtqueue
	prot bool

	// BufSize is the per-descriptor buffer size (one LRO segment).
	BufSize int

	chunks   []*mem.Page // order-9 hugepage chunks backing pool + rings
	bufRecs  []bypassBuf // descriptor cookies, fixed at setup
	usedIOVA iommu.IOVA

	harvest  []device.RXCompletion // reusable harvest burst buffer
	batch    []device.RXDesc       // repost batch, flushed per doorbell
	pollTask func(*sim.Task)       // bound once; reused every tick
	stop     func()
	// pollQueued is set while a submitted poll has not started, so the
	// ticker does not queue another behind it.
	pollQueued bool

	// Stats.
	Polls      uint64 // poll ticks executed
	EmptyPolls uint64 // ticks that found nothing (pure spin)
	Harvested  uint64 // completions consumed from the used ring
	Posted     uint64 // descriptors posted (initial fill + reposts)
	Doorbells  uint64 // doorbell MMIO writes (one per batch)
	Bytes      uint64 // wire bytes of delivered segments
	Drops      uint64 // faulted or checksum-failed completions
}

// bypassBuf is a pool buffer's permanent identity: with mappings registered
// once at setup there is nothing to unmap, so the cookie never changes and
// descriptors circulate ring → used ring → repost untouched.
type bypassBuf struct {
	pa   mem.PhysAddr
	iova iommu.IOVA
}

// NewBypassDriver binds a polling driver to one NIC ring. dev is the DMA
// identity the ring's transfers translate under (the bypass device id);
// prot selects the per-app-domain flavor (the caller attached the domain).
// The poll core is the ring's bound core — dedicated, never shared with an
// interrupt path.
func NewBypassDriver(k *Kernel, nic *device.NIC, ring, dev int, prot bool) *BypassDriver {
	return &BypassDriver{
		k: k, nic: nic, ring: ring, dev: dev, prot: prot,
		core:    nic.RingCore(ring),
		BufSize: k.Model.SegmentSize,
	}
}

// Core reports the dedicated poll core.
func (d *BypassDriver) Core() *sim.Core { return d.core }

// Virtqueue exposes the device half (tests, attack scenarios).
func (d *BypassDriver) Virtqueue() *device.Virtqueue { return d.vq }

// PoolChunks reports the hugepage chunks backing the buffer pool — the
// registered region a bypass attack scenario probes the edges of.
func (d *BypassDriver) PoolChunks() []*mem.Page { return d.chunks }

// Setup carves the buffer pool and used ring from hugepages, registers the
// mappings (bypass-prot pays MapCycles once per hugepage — the entire
// protection setup cost), builds the virtqueue, switches the ring to poll
// mode and fills it behind one doorbell.
func (d *BypassDriver) Setup(t *sim.Task) error {
	m := d.k.Model
	ringSize := d.nic.Cfg.RingSize
	need := ringSize*d.BufSize + mem.PageSize // pool + used-ring page
	nchunks := (need + mem.HugePageSize - 1) / mem.HugePageSize
	node := d.core.Node
	for i := 0; i < nchunks; i++ {
		pg, err := d.k.Mem.AllocPages(mem.HugePageShift-mem.PageShift, node)
		if err != nil {
			return fmt.Errorf("netstack: bypass pool chunk %d/%d: %w", i, nchunks, err)
		}
		d.chunks = append(d.chunks, pg)
		pa := pg.PFN().Addr()
		if d.prot {
			// Register once, forever: identity IOVAs in the app's own
			// domain, one 2 MiB PTE per chunk.
			if err := d.k.IOMMU.MapHuge(d.dev, iommu.IOVA(pa), pa, iommu.PermRW); err != nil {
				return fmt.Errorf("netstack: bypass pool map: %w", err)
			}
			t.Charge(m.MapCycles)
		}
	}
	// Carve: buffers first, then the used-ring slot on its own page.
	chunk, off := 0, 0
	carve := func(size int) mem.PhysAddr {
		if off+size > mem.HugePageSize {
			chunk++
			off = 0
		}
		pa := d.chunks[chunk].PFN().Addr() + mem.PhysAddr(off)
		off += size
		return pa
	}
	d.bufRecs = make([]bypassBuf, ringSize)
	for i := range d.bufRecs {
		pa := carve(d.BufSize)
		d.bufRecs[i] = bypassBuf{pa: pa, iova: iommu.IOVA(pa)}
	}
	d.usedIOVA = iommu.IOVA(carve(mem.PageSize))

	// The ring becomes the app's queue pair: its DMAs translate (and
	// fault) under the bypass device identity, exactly like an SR-IOV VF
	// handed to user space.
	if err := d.nic.BindRingDevice(d.ring, d.dev); err != nil {
		return err
	}
	d.vq = device.NewVirtqueue(d.k.Sim, d.k.IOMMU, d.dev, d.usedIOVA)
	if err := d.nic.AttachVirtqueue(d.ring, d.vq); err != nil {
		return err
	}
	d.harvest = make([]device.RXCompletion, m.BypassHarvestBurst)
	d.batch = make([]device.RXDesc, 0, ringSize)
	d.pollTask = d.poll

	// Initial fill: the whole avail ring behind one doorbell.
	for i := range d.bufRecs {
		rb := &d.bufRecs[i]
		d.batch = append(d.batch, device.RXDesc{IOVA: rb.iova, Size: d.BufSize, Cookie: rb})
		t.Charge(m.VQPostCycles)
	}
	return d.flushPosts(t)
}

// flushPosts publishes the batched avail descriptors with one doorbell.
func (d *BypassDriver) flushPosts(t *sim.Task) error {
	if len(d.batch) == 0 {
		return nil
	}
	t.Charge(d.k.Model.DoorbellCycles)
	d.Doorbells++
	err := d.nic.PostRX(d.ring, d.batch...)
	d.Posted += uint64(len(d.batch))
	d.batch = d.batch[:0]
	return err
}

// Start arms the busy-poll ticker on the dedicated core. The returned stop
// function (also kept as d.Stop) cancels it; anything that drains the engine
// with RunUntilIdle must stop the poller first, or the tick stream never
// ends.
//
// A tick that finds a submitted poll not yet started submits nothing. A poll
// lasts at least one tick (the spin remainder fills it), so polls run back to
// back either way; skipping only keeps a backlog of identical polls from
// piling up in the core's run queue.
func (d *BypassDriver) Start() (stop func()) {
	interval := d.k.Model.BypassPollInterval
	if interval <= 0 {
		interval = 2 * sim.Microsecond
	}
	d.stop = d.k.Sim.Every(interval, func() {
		if !d.pollQueued {
			d.pollQueued = true
			d.core.Submit(false, d.pollTask)
		}
	})
	return d.stop
}

// Stop cancels the poll ticker.
func (d *BypassDriver) Stop() {
	if d.stop != nil {
		d.stop()
		d.stop = nil
	}
}

// poll is one tick of the busy-poll loop: harvest a burst from the used
// ring, run each completion to completion, repost behind one doorbell —
// and charge the spin remainder when the tick found less than a tick's
// worth of work, because a polling core never sleeps.
func (d *BypassDriver) poll(t *sim.Task) {
	d.pollQueued = false
	m := d.k.Model
	d.Polls++
	n := d.vq.Harvest(d.harvest)
	var work float64
	if n == 0 {
		d.EmptyPolls++
	}
	for i := 0; i < n; i++ {
		comp := &d.harvest[i]
		work += m.VQHarvestCycles
		d.Harvested++
		bad := comp.BadCSum || (comp.Written == 0 && comp.Seg.Len > 0 && len(comp.Seg.Header) > 0)
		if bad {
			d.Drops++
		} else {
			// The lean user-space stack: descriptor bookkeeping plus
			// run-to-completion processing, no syscall, no skbuff.
			work += m.BypassRXSegCycles
			d.Bytes += uint64(comp.Seg.Len)
		}
		// Permanent mappings: repost the same descriptor unchanged.
		d.batch = append(d.batch, comp.Desc)
		work += m.VQPostCycles
		d.harvest[i] = device.RXCompletion{}
	}
	if n > 0 {
		work += m.DoorbellCycles
	}
	t.Charge(work)
	if err := d.flushPosts(t); err != nil {
		// A quarantined ring rejects posts; drop the batch — the fence
		// owns the descriptors now.
		d.batch = d.batch[:0]
	}
	// The spin remainder: a poll loop burns the whole interval whether or
	// not work arrived. Under overload (work > interval) nothing extra is
	// charged — the core is already saturated.
	if spin := float64(m.BypassPollInterval.Seconds())*m.CoreHz - work; spin > 0 {
		t.Charge(spin)
	}
}

// Close stops polling, detaches the virtqueue (the ring returns to
// interrupt mode) and releases the hugepage pool. Under bypass-prot it
// first revokes the app's mappings of the pool and invalidates its domain,
// so the device can no longer reach pages the kernel hands out again.
func (d *BypassDriver) Close() {
	d.Stop()
	if d.vq != nil {
		d.nic.AttachVirtqueue(d.ring, nil)       //nolint:errcheck
		d.nic.BindRingDevice(d.ring, d.nic.ID()) //nolint:errcheck
		d.vq = nil
	}
	if d.prot && len(d.chunks) > 0 {
		for _, pg := range d.chunks {
			// A chunk whose mapping failed in Setup has nothing to unmap.
			_ = d.k.IOMMU.UnmapHuge(d.dev, iommu.IOVA(pg.PFN().Addr()))
		}
		// Only a range invalidation can be rejected.
		_ = d.k.IOMMU.InvQ().Invalidate(nil, d.k.Model.ITETimeout, iommu.Command{Kind: iommu.InvDomain, Dev: d.dev})
	}
	for _, pg := range d.chunks {
		d.k.Mem.FreePages(pg, mem.HugePageShift-mem.PageShift)
	}
	d.chunks = nil
}
