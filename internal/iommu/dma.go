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
// write selects the permission that must be present. It is the one-page
// case of the page loop (see pages).
func (u *IOMMU) Translate(dev int, iova IOVA, write bool) (mem.PhysAddr, error) {
	_, pa, err := u.pages(dev, iova, 1, write, nil, true)
	return pa, err
}

// TranslateSpan translates every 4 KiB page of [iova, iova+span), as a
// device does when it walks a whole segment. Faults do not abort the span
// (the device touches each page independently); the first error is
// returned.
func (u *IOMMU) TranslateSpan(dev int, iova IOVA, span int, write bool) error {
	_, _, err := u.pages(dev, iova, span, write, nil, true)
	return err
}

// DMARead performs a device read (device fetches host memory, e.g. a TX
// payload): n = len(buf) bytes starting at iova are copied into buf.
// Translation happens page by page; a fault anywhere aborts the transfer at
// the fault boundary and returns the fault plus the byte count completed.
func (u *IOMMU) DMARead(dev int, iova IOVA, buf []byte) (int, error) {
	done, _, err := u.pages(dev, iova, len(buf), false, buf, false)
	return done, err
}

// DMATouch performs a device read of n bytes at iova that delivers them
// nowhere: it translates, bounds-checks and faults exactly as DMARead into
// an n-byte buffer does, and copies nothing. A NIC fetching a TX payload it
// only puts on the wire uses it.
func (u *IOMMU) DMATouch(dev int, iova IOVA, n int) (int, error) {
	done, _, err := u.pages(dev, iova, n, false, nil, false)
	return done, err
}

// DMAWrite performs a device write (device deposits into host memory, e.g.
// an RX packet): len(buf) bytes are copied from buf to iova.
func (u *IOMMU) DMAWrite(dev int, iova IOVA, buf []byte) (int, error) {
	done, _, err := u.pages(dev, iova, len(buf), true, buf, false)
	return done, err
}

// pages is the one page loop behind every device access to memory: it
// translates the pages of the n bytes at iova for dev.
//
// A span visits iova + k·4 KiB for each k below ⌈n/4 KiB⌉, as a device
// walking a whole segment does; a fault does not stop it, and the first
// error is returned. A transfer (span false) visits iova and then every
// 4 KiB boundary below iova+n, checks each translated chunk against RAM,
// moves it between buf and memory (nothing when buf is nil), and stops at
// the first fault with the bytes done. pa is where the last page visited
// translated to.
//
// The domain, passthrough and fault-plane checks run once per call. Each
// page then counts a translation and faults if the domain is detached, if
// its IOVA lies past the 48-bit domain width (a page whose address wrapped
// past 2^64 included) or if an injected fault fires (drawn per page only
// while DMAFault is armed for dev). Otherwise it probes the IOTLB, and a
// miss walks the page tables and fills the way the probe chose.
func (u *IOMMU) pages(dev int, iova IOVA, n int, write bool, buf []byte, span bool) (done int, pa mem.PhysAddr, err error) {
	need := permFor(write)
	d := u.Domain(dev)
	t := u.tlb
	var td *tlbDev
	var armed bool
	if d != nil && !d.Passthrough {
		td = t.grow(dev)
		armed = u.inj.Armed(faults.DMAFault, dev)
	}
	for done < n {
		va := iova + IOVA(done)
		chunk := mem.PageSize
		if !span {
			chunk = min(mem.PageSize-int(va&IOVA(mem.PageMask)), n-done)
		}
		u.Translations++
		blocked, injected := false, false
		switch {
		case d == nil:
			blocked = true
		case d.Passthrough:
			pa = mem.PhysAddr(va)
		case va > maxIOVA || va < iova:
			blocked = true
		case armed && u.inj.ShouldDev(faults.DMAFault, dev):
			// An injected translation fault blocks the DMA even though
			// the mapping is valid — hardware hiccups (ATS glitches,
			// poisoned walks) that real VT-d units report through the
			// fault-record queue.
			blocked, injected = true, true
		default:
			tag := va >> mem.PageShift
			s := &t.sets[t.setIndex(dev, tag)]
			w := s.find(tlbKey(dev, tag, false), td.gen)
			if w >= 0 {
				s.touch(w)
				t.Hits++
			} else {
				s, w = u.miss(d, td, s, dev, va, need)
			}
			if w < 0 || Perm(s.keys[w])&need == 0 {
				blocked = true
			} else {
				pa = s.addr(w, va)
			}
		}
		if blocked {
			f := u.fault(dev, va, need, write, injected)
			if !span {
				return done, 0, f
			}
			if err == nil {
				err = f
			}
		} else if !span {
			if err := u.move(pa, buf, done, chunk, write); err != nil {
				return done, pa, err
			}
		}
		done += chunk
	}
	return done, pa, err
}

// move checks that a translated chunk lies in RAM and moves it between
// buf[done:done+chunk] and memory at pa: a write copies from buf, a read
// into it, and a nil buf moves nothing.
func (u *IOMMU) move(pa mem.PhysAddr, buf []byte, done, chunk int, write bool) error {
	if err := u.mem.CheckRange(pa, chunk); err != nil {
		return fmt.Errorf("iommu: translated DMA out of RAM bounds: %w", err)
	}
	switch {
	case buf == nil:
	case write:
		u.mem.Write(pa, buf[done:done+chunk])
	default:
		u.mem.Read(pa, buf[done:done+chunk])
	}
	return nil
}

// miss serves a page of dev whose 4 KiB tag missed in set s: it probes
// the 2 MiB tag while the device holds a live 2 MiB entry, counts a miss,
// walks the page tables and, when the leaf grants need, fills the cache
// (a 4 KiB leaf into s). It returns the set and way that now translate the
// page, or a way below 0 when the walk found no leaf granting need.
func (u *IOMMU) miss(d *Domain, td *tlbDev, s *tlbSet, dev int, va IOVA, need Perm) (*tlbSet, int) {
	t := u.tlb
	if td.huge > 0 {
		tag := va >> mem.HugePageShift
		hs := &t.sets[t.setIndex(dev, tag)]
		if w := hs.find(tlbKey(dev, tag, true), td.gen); w >= 0 {
			hs.touch(w)
			t.Hits++
			return hs, w
		}
	}
	t.Misses++
	e := d.walk(va, false)
	if e == nil || !e.present || e.perm&need == 0 {
		return nil, -1
	}
	if e.huge {
		return t.insert(dev, va, true, e.pfn, e.perm)
	}
	w := t.victim(s)
	t.fill(s, w, td, tlbKey(dev, va>>mem.PageShift, false)|uint64(e.perm), e.pfn)
	return s, w
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
