package iommu

import (
	"fmt"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/mem"
)

// Translate resolves one IOVA to a physical address on behalf of a device
// DMA, consulting the IOTLB first. A hit is served from the cache even when
// the page tables no longer contain the mapping — exactly the hardware
// behaviour that makes deferred invalidation a security/performance trade.
// write selects the permission that must be present.
func (u *IOMMU) Translate(dev int, iova IOVA, write bool) (mem.PhysAddr, error) {
	u.Translations++
	d := u.Domain(dev)
	if d == nil {
		return 0, u.fault(dev, iova, permFor(write), write, false)
	}
	if d.Passthrough {
		return mem.PhysAddr(iova), nil
	}
	need := permFor(write)
	// An injected translation fault blocks the DMA even though the mapping
	// is valid — hardware hiccups (ATS glitches, poisoned walks) that real
	// VT-d units report through the fault-record queue.
	if u.inj.ShouldDev(faults.DMAFault, dev) {
		return 0, u.fault(dev, iova, need, write, true)
	}
	if e, ok := u.tlb.lookup(dev, iova); ok {
		if e.perm&need == 0 {
			return 0, u.fault(dev, iova, need, write, false)
		}
		if e.huge {
			return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.HugePageMask)), nil
		}
		return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.PageMask)), nil
	}
	// IOTLB miss: walk the page tables.
	e := d.walk(iova, false)
	if e == nil || !e.present {
		return 0, u.fault(dev, iova, need, write, false)
	}
	if e.perm&need == 0 {
		return 0, u.fault(dev, iova, need, write, false)
	}
	u.tlb.insert(dev, iova, e.huge, e.pfn, e.perm)
	if e.huge {
		return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.HugePageMask)), nil
	}
	return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.PageMask)), nil
}

// fault records a blocked DMA in the bounded VT-d fault-record queue and
// the counters, and returns the Fault for the caller to propagate.
func (u *IOMMU) fault(dev int, iova IOVA, want Perm, write, injected bool) Fault {
	u.BlockedDMAs++
	u.countDev(&u.blockedBy, "blocked_dmas", dev)
	f := Fault{Dev: dev, Addr: iova, Wanted: want, Write: write}
	if u.fq.push(FaultRecord{Fault: f, Injected: injected}) {
		u.countDev(&u.fq.recordedBy, "fault_records", dev)
	} else {
		u.countDev(&u.fq.overflowsBy, "fault_overflows", dev)
	}
	// A genuinely blocked DMA aimed at an address another device owns is a
	// neighbour probe: attribute it to the prober so the attack figures have
	// denial evidence per source. Injected faults are hardware hiccups on
	// valid mappings, not probes.
	if !injected && u.classify != nil {
		if owner, ok := u.classify(dev, iova); ok && owner != dev {
			u.countDev(&u.fq.probesBy, "neighbor_probes_blocked", dev)
		}
	}
	return f
}

// SetProbeClassifier installs the IOVA-ownership decoder used to classify
// blocked DMAs as neighbour probes (see the classify field). Passing nil
// disables classification.
func (u *IOMMU) SetProbeClassifier(fn func(dev int, v IOVA) (owner int, ok bool)) {
	u.classify = fn
}

// BlockedDMAsFor reports how many DMAs from one source device the IOMMU has
// blocked — the per-fault-domain flavour of BlockedDMAs.
func (u *IOMMU) BlockedDMAsFor(dev int) uint64 {
	if dev < 0 || dev >= len(u.blockedBy) {
		return 0
	}
	return u.blockedBy[dev]
}

func permFor(write bool) Perm {
	if write {
		return PermWrite
	}
	return PermRead
}

// TranslateSpan translates every 4 KiB page of [iova, iova+span), as a
// device does when it walks a whole segment. Faults do not abort the span
// (the device touches each page independently); the first error is
// returned.
func (u *IOMMU) TranslateSpan(dev int, iova IOVA, span int, write bool) error {
	var first error
	for off := 0; off < span; off += mem.PageSize {
		if _, err := u.Translate(dev, iova+IOVA(off), write); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DMARead performs a device read (device fetches host memory, e.g. a TX
// payload): n = len(buf) bytes starting at iova are copied into buf.
// Translation happens page by page; a fault anywhere aborts the transfer at
// the fault boundary and returns the fault plus the byte count completed.
func (u *IOMMU) DMARead(dev int, iova IOVA, buf []byte) (int, error) {
	return u.dma(dev, iova, buf, len(buf), false)
}

// DMATouch performs a device read of n bytes at iova that delivers them
// nowhere: it translates, bounds-checks and faults exactly as DMARead into
// an n-byte buffer does, and copies nothing. A NIC fetching a TX payload it
// only puts on the wire uses it.
func (u *IOMMU) DMATouch(dev int, iova IOVA, n int) (int, error) {
	return u.dma(dev, iova, nil, n, false)
}

// DMAWrite performs a device write (device deposits into host memory, e.g.
// an RX packet): len(buf) bytes are copied from buf to iova.
func (u *IOMMU) DMAWrite(dev int, iova IOVA, buf []byte) (int, error) {
	return u.dma(dev, iova, buf, len(buf), true)
}

// dma moves n bytes between iova and buf, page by page; a nil buf moves
// nothing.
func (u *IOMMU) dma(dev int, iova IOVA, buf []byte, n int, write bool) (int, error) {
	done := 0
	for done < n {
		va := iova + IOVA(done)
		pa, err := u.Translate(dev, va, write)
		if err != nil {
			return done, err
		}
		// Transfer up to the end of the current 4 KiB page (the unit
		// of translation even within huge mappings).
		chunk := min(mem.PageSize-int(va&IOVA(mem.PageMask)), n-done)
		if err := u.mem.CheckRange(pa, chunk); err != nil {
			return done, fmt.Errorf("iommu: translated DMA out of RAM bounds: %w", err)
		}
		switch {
		case buf == nil:
		case write:
			u.mem.Write(pa, buf[done:done+chunk])
		default:
			u.mem.Read(pa, buf[done:done+chunk])
		}
		done += chunk
	}
	return done, nil
}
