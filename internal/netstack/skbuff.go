package netstack

import (
	"fmt"

	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

// SKBuff is the socket buffer. Its data lives in a single head buffer
// (DAMN chunks cover the 64 KiB LRO maximum, so scatter/gather frags are
// unnecessary in this reproduction).
//
// OS code must access packet bytes through the accessor methods — exactly
// the property §5.2 relies on. When the head is device-writable (a DAMN RX
// buffer), the accessors copy the touched prefix into a kernel-private
// "safe" buffer first, so the device can never change bytes the OS has
// already looked at (TOCTTOU defence). For legacy schemes the accessors
// read the head directly — any staleness window there is the scheme's
// problem, which the attack scenarios demonstrate.
type SKBuff struct {
	k *Kernel

	// Dev is the owning device (-1: none).
	Dev int
	// Rights are the device's access rights to the head buffer.
	Rights iommu.Perm

	headPA   mem.PhysAddr
	headCap  int
	damnHead bool

	// dataLen is the logical payload length; materialized is how much of
	// it is physically present (throughput runs materialise only
	// headers; security tests materialise everything).
	dataLen      int
	materialized int

	// Safe prefix: [0, safeLen) of the payload has been copied out of
	// the device's reach into safePA (slab memory).
	safePA  mem.PhysAddr
	safeCap int
	safeLen int

	// DMAAddr is valid while the buffer is mapped for the device.
	DMAAddr iommu.IOVA
	mapped  bool

	freed bool

	// userBuf is the pooled CopyToUser destination recorded for recycling
	// when the skb is freed, sliced to its watermark (first copy only;
	// callers never use the slice past the skb's lifetime).
	userBuf []byte

	// Flow tags the TCP flow the segment belongs to (demux key).
	Flow int
	// Seq is the ARQ sequence number carried by the segment (0: none).
	Seq uint32
	// Hash is the RSS hash the segment carries on the wire; TX paths fill
	// it so a forwarded segment steers correctly at the receiving machine.
	Hash uint32
	// Meta is opaque application metadata carried end to end (the cluster
	// workloads encode request descriptors here).
	Meta uint32
	// Stamp is the sending NIC's wire timestamp on a cross-machine
	// segment (zero for local traffic) — the receiver's latency baseline.
	Stamp sim.Time
	// Owner carries the sending endpoint through the TX ring for
	// completion dispatch.
	Owner TxCompleter

	// CopiedBytes counts TOCTTOU-defence copying on this skb (Fig 8).
	CopiedBytes int
}

// AllocSKB is __alloc_skb: dev < 0 allocates from the ordinary kernel
// allocator; dev >= 0 with DAMN deployed allocates a device-visible DAMN
// buffer with rights chosen by rx (§5.7: the flags argument defines the
// access rights — write for RX, read for TX).
func AllocSKB(k *Kernel, t *sim.Task, dev int, size int, rx bool) (*SKBuff, error) {
	perf.Charge(t, k.Model.SkbAllocCycles)
	rights := iommu.PermRead
	if rx {
		rights = iommu.PermWrite
	}
	pa, damnOwned, err := k.AllocBuffer(t, dev, rights, size)
	if err != nil {
		return nil, err
	}
	s := k.getSKB()
	s.Dev, s.Rights = dev, rights
	s.headPA, s.headCap, s.damnHead = pa, size, damnOwned
	return s, nil
}

// DmaAllocSKB is the new dma_alloc_skb entry point of §5.7 for DAMN-aware
// flows; identical to AllocSKB but requires a device.
func DmaAllocSKB(k *Kernel, t *sim.Task, dev int, size int, rx bool) (*SKBuff, error) {
	if dev < 0 {
		return nil, fmt.Errorf("netstack: dma_alloc_skb requires a device")
	}
	return AllocSKB(k, t, dev, size, rx)
}

// AllocSKBPageCache builds a transmit skb over page-cache-style kernel
// memory — the zero-copy paths (sendfile, zero-copy forwarding) of §2.2,
// which DAMN explicitly does not serve: such buffers are not DAMN's, so
// when the driver maps them the call falls through to the legacy DMA API
// and its protection scheme.
func AllocSKBPageCache(k *Kernel, t *sim.Task, dev int, size int) (*SKBuff, error) {
	perf.Charge(t, k.Model.SkbAllocCycles)
	node := 0
	if t != nil {
		node = t.Core().Node
	}
	pa, err := k.Slab.Alloc(size, node)
	if err != nil {
		return nil, err
	}
	s := k.getSKB()
	s.Dev, s.Rights = dev, iommu.PermRead
	s.headPA, s.headCap = pa, size
	return s, nil
}

// AdoptBuffer builds an skb around an existing raw buffer (the driver's RX
// completion path: the buffer was allocated and posted before the packet
// arrived).
func AdoptBuffer(k *Kernel, dev int, rights iommu.Perm, pa mem.PhysAddr, capacity int, damnOwned bool) *SKBuff {
	s := k.getSKB()
	s.Dev, s.Rights = dev, rights
	s.headPA, s.headCap, s.damnHead = pa, capacity, damnOwned
	return s
}

// Len returns the logical payload length.
func (s *SKBuff) Len() int { return s.dataLen }

// HeadPA exposes the head buffer address (driver/mapping use only; stack
// code must use the accessors).
func (s *SKBuff) HeadPA() mem.PhysAddr { return s.headPA }

// DamnOwned reports whether the head is a DAMN buffer.
func (s *SKBuff) DamnOwned() bool { return s.damnHead }

// SetReceived records that the device deposited a segment: logical length
// n, of which written bytes are physically present.
func (s *SKBuff) SetReceived(n, written int) {
	if n > s.headCap {
		n = s.headCap
	}
	s.dataLen = n
	s.materialized = written
	s.safeLen = 0
}

// deviceCanWrite reports whether the device can still mutate the head.
func (s *SKBuff) deviceCanWrite() bool {
	return s.damnHead && s.Rights&iommu.PermWrite != 0
}

// Access returns the first n bytes of the payload for OS inspection
// (headers, firewall rules...). This is the interposition point of §5.2:
// if the device can write the buffer, the accessed range is first copied
// out of its reach, making subsequent device writes to those bytes
// invisible to the OS.
func (s *SKBuff) Access(t *sim.Task, n int) ([]byte, error) {
	if n > s.dataLen {
		n = s.dataLen
	}
	if n <= 0 {
		return nil, nil
	}
	if !s.deviceCanWrite() {
		return s.k.Mem.Bytes(s.headPA, n), nil
	}
	if err := s.ensureSafe(t, n); err != nil {
		return nil, err
	}
	return s.k.Mem.Bytes(s.safePA, n), nil
}

// ensureSafe extends the safe prefix to cover [0, n).
func (s *SKBuff) ensureSafe(t *sim.Task, n int) error {
	if n <= s.safeLen {
		return nil
	}
	if s.safePA == 0 || n > s.safeCap {
		// Grow the safe buffer (slab memory, device-inaccessible).
		newCap := s.safeCap * 2
		if newCap < n {
			newCap = n
		}
		node := 0
		if t != nil {
			node = t.Core().Node
		}
		pa, err := s.k.Slab.Alloc(newCap, node)
		if err != nil {
			return err
		}
		if s.safeLen > 0 {
			s.k.Mem.Copy(pa, s.safePA, s.safeLen)
		}
		if s.safePA != 0 {
			s.k.Slab.Free(s.safePA)
		}
		s.safePA = pa
		s.safeCap = newCap
	}
	// Copy the newly accessed span out of the device's reach; this is
	// the only copying DAMN ever adds, and it is proportional to what
	// the OS actually reads (Fig 8).
	span := n - s.safeLen
	s.k.Mem.Copy(s.safePA+mem.PhysAddr(s.safeLen), s.headPA+mem.PhysAddr(s.safeLen), span)
	perf.CPUCopy(t, s.k.MemBW, span, s.k.Model.AccessCopyCyclesPerByte, s.k.Model.CopyMemFraction)
	s.safeLen = n
	s.CopiedBytes += span
	return nil
}

// CopyToUser performs the user-boundary copy of up to n payload bytes and
// returns them (the returned slice models user memory — the device cannot
// reach it). Bytes already in the safe prefix come from there; the rest
// comes straight from the head buffer, because any device write racing
// this copy is indistinguishable from a write that happened while the
// packet was still mapped (§5.6 RX argument). Payload bytes that were
// never materialised read as zeroes.
//
// The returned slice is read-only and valid until the skb is freed: it is
// a pooled buffer whose zeroed tail the pool relies on (see getUserBuf),
// so a caller that writes into it corrupts a later copy. The copy is
// charged for all n bytes however few of them the host actually moves.
func (s *SKBuff) CopyToUser(t *sim.Task, n int) []byte {
	if n > s.dataLen {
		n = s.dataLen
	}
	if n <= 0 {
		return nil
	}
	buf := s.k.getUserBuf(n)
	user := buf[:n]
	fromSafe := s.safeLen
	if fromSafe > n {
		fromSafe = n
	}
	if fromSafe > 0 {
		s.k.Mem.Read(s.safePA, user[:fromSafe])
	}
	filled := fromSafe
	if n > fromSafe {
		// Copy only what is materialised; the logical remainder reads
		// as zeroes (throughput runs don't materialise payloads).
		end := s.materialized
		if end > n {
			end = n
		}
		if end > fromSafe {
			s.k.Mem.Read(s.headPA+mem.PhysAddr(fromSafe), user[fromSafe:end])
			filled = end
		}
	}
	// Only [filled, watermark) can hold an earlier copy's bytes; once it
	// is cleared everything past filled is zero, so filled is the
	// buffer's new watermark.
	if w := len(buf); w > filled {
		clear(buf[filled:w])
	}
	if s.userBuf == nil {
		// Recorded for recycling when the skb is freed; a second copy on
		// the same skb (never on the data path) is simply left to the GC.
		s.userBuf = buf[:filled]
	}
	perf.CPUCopy(t, s.k.MemBW, n, s.k.Model.CopyCyclesPerByte, s.k.Model.CopyMemFraction)
	return user
}

// CopyFromUser appends user data to the payload (TX path). data may be
// shorter than n (the logical write size); only data's bytes are
// materialised.
func (s *SKBuff) CopyFromUser(t *sim.Task, data []byte, n int) error {
	if s.dataLen+n > s.headCap {
		return fmt.Errorf("netstack: skb overflow: %d+%d > %d", s.dataLen, n, s.headCap)
	}
	if len(data) > 0 {
		s.k.Mem.Write(s.headPA+mem.PhysAddr(s.dataLen), data)
		m := s.dataLen + len(data)
		if m > s.materialized {
			s.materialized = m
		}
	}
	s.dataLen += n
	perf.CPUCopy(t, s.k.MemBW, n, s.k.Model.CopyCyclesPerByte, s.k.Model.CopyMemFraction)
	return nil
}

// MapForDevice runs the buffer through the DMA API (dma_map). For DAMN
// buffers the interposer short-circuits this to the permanent mapping.
func (s *SKBuff) MapForDevice(t *sim.Task, dir dmaapi.Direction) (iommu.IOVA, error) {
	if s.mapped {
		return 0, fmt.Errorf("netstack: skb already mapped")
	}
	v, err := s.k.DMA.Map(t, s.Dev, s.headPA, s.headCap, dir)
	if err != nil {
		return 0, err
	}
	s.DMAAddr = v
	s.mapped = true
	return v, nil
}

// UnmapForDevice is dma_unmap.
func (s *SKBuff) UnmapForDevice(t *sim.Task, dir dmaapi.Direction) error {
	if !s.mapped {
		return fmt.Errorf("netstack: skb not mapped")
	}
	s.mapped = false
	return s.k.DMA.Unmap(t, s.Dev, s.DMAAddr, s.headCap, dir)
}

// Free releases the skb and its buffers.
func (s *SKBuff) Free(t *sim.Task) {
	if s.freed {
		panic("netstack: double free of skb")
	}
	s.freed = true
	perf.Charge(t, s.k.Model.SkbFreeCycles)
	if s.safePA != 0 {
		s.k.Slab.Free(s.safePA)
		s.safePA = 0
	}
	if s.userBuf != nil {
		s.k.putUserBuf(s.userBuf)
		s.userBuf = nil
	}
	// A failed free quarantines the buffer inside FreeBuffer; the skb
	// itself is gone either way.
	_ = s.k.FreeBuffer(t, s.headPA, s.damnHead)
	// The struct goes back to the pool still marked freed, so a stale
	// double free keeps panicking until the slot is reused.
	s.k.freeSKBs = append(s.k.freeSKBs, s)
}
