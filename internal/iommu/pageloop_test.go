package iommu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/mem"
)

// refUnit translates as the IOMMU did before one page loop served every
// device access: the per-page Translate below, called once per page by
// span and dma, over the sweeping IOTLB with a global clock (refIOTLB).
// The domains, page tables, fault records and counters are those of u, an
// IOMMU the test maps exactly like the one it checks. The one addition to
// the old Translate is the domain-width check.
type refUnit struct {
	u   *IOMMU
	tlb *refIOTLB
}

func (r *refUnit) translate(dev int, iova IOVA, write bool) (mem.PhysAddr, error) {
	u := r.u
	u.Translations++
	d := u.Domain(dev)
	if d == nil {
		return 0, u.fault(dev, iova, permFor(write), write, false)
	}
	if d.Passthrough {
		return mem.PhysAddr(iova), nil
	}
	need := permFor(write)
	if iova > maxIOVA {
		return 0, u.fault(dev, iova, need, write, false)
	}
	if u.inj.ShouldDev(faults.DMAFault, dev) {
		return 0, u.fault(dev, iova, need, write, true)
	}
	if e, ok := r.tlb.lookup(dev, iova); ok {
		if e.perm&need == 0 {
			return 0, u.fault(dev, iova, need, write, false)
		}
		if e.huge {
			return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.HugePageMask)), nil
		}
		return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.PageMask)), nil
	}
	e := d.walk(iova, false)
	if e == nil || !e.present || e.perm&need == 0 {
		return 0, u.fault(dev, iova, need, write, false)
	}
	r.tlb.insert(dev, iova, e.huge, e.pfn, e.perm)
	if e.huge {
		return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.HugePageMask)), nil
	}
	return e.pfn.Addr() + mem.PhysAddr(iova&IOVA(mem.PageMask)), nil
}

func (r *refUnit) span(dev int, iova IOVA, span int, write bool) error {
	var first error
	for off := 0; off < span; off += mem.PageSize {
		if _, err := r.translate(dev, iova+IOVA(off), write); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *refUnit) dma(dev int, iova IOVA, buf []byte, n int, write bool) (int, error) {
	done := 0
	for done < n {
		va := iova + IOVA(done)
		pa, err := r.translate(dev, va, write)
		if err != nil {
			return done, err
		}
		chunk := min(mem.PageSize-int(va&IOVA(mem.PageMask)), n-done)
		if err := r.u.mem.CheckRange(pa, chunk); err != nil {
			return done, fmt.Errorf("iommu: translated DMA out of RAM bounds: %w", err)
		}
		switch {
		case buf == nil:
		case write:
			r.u.mem.Write(pa, buf[done:done+chunk])
		default:
			r.u.mem.Read(pa, buf[done:done+chunk])
		}
		done += chunk
	}
	return done, nil
}

// loopFixture maps one IOMMU the way the differential test needs and
// returns it with its memory: device 1 holds read-only, write-only and
// read-write 4 KiB pages with holes between them, a 2 MiB page and the top
// page of the domain; device 2 holds a few pages and is switched between
// translated and passthrough; device 3 is detached and re-attached;
// device 4 is never attached.
func loopFixture(t *testing.T) (*IOMMU, *mem.Memory) {
	u, m := newTestIOMMU(t)
	u.tlb = NewIOTLB(loopTLB) // small enough to evict
	u.invq = NewInvalidationQueue(u.tlb)
	for dev := 1; dev <= 3; dev++ {
		u.AttachDevice(dev)
	}
	perms := []Perm{PermRead, PermWrite, PermRW}
	for p := 0; p < loopPages; p++ {
		if p%5 == 4 {
			continue // a hole
		}
		if err := u.Map(1, loopBase+IOVA(p)<<mem.PageShift, allocPA(t, m, 0), mem.PageSize, perms[p%3]); err != nil {
			t.Fatal(err)
		}
	}
	huge, err := m.AllocPages(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.MapHuge(1, loopHuge, huge.PFN().Addr(), PermRW); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(1, maxIOVA&^IOVA(mem.PageMask), allocPA(t, m, 0), mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for dev := 2; dev <= 3; dev++ {
		if err := u.Map(dev, loopBase, allocPA(t, m, 2), 4*mem.PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	return u, m
}

const (
	loopBase  = IOVA(0x100000)
	loopPages = 48
	loopHuge  = IOVA(0x4000_0000)
)

var loopTLB = IOTLBConfig{Sets: 4}

// TestTranslateSpanMatchesPerPage: the page loop behind Translate,
// TranslateSpan, DMARead, DMAWrite and DMATouch leaves an IOMMU exactly as
// the per-page Translate it replaced leaves a twin (refUnit). Both are
// mapped alike, fed the same seeded mix of calls over mapped, unmapped,
// wrong-permission, 2 MiB and out-of-width pages, passthrough and detached
// domains, with DMAFault injected at a rate, for a while behind a device
// filter, and with unmaps, range and domain invalidations in between. After
// every call the results, the bytes read, Translations, the IOTLB's hits,
// misses and invalidations, the fault records and every device's blocked
// and recorded counts must match.
func TestTranslateSpanMatchesPerPage(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		got, _ := loopFixture(t)
		refU, _ := loopFixture(t)
		ref := &refUnit{u: refU, tlb: newRefIOTLB(loopTLB)}
		injs := [2]*faults.Injector{}
		for i, u := range []*IOMMU{got, refU} {
			injs[i] = faults.New(faults.Config{Seed: seed, Rates: map[faults.Kind]float64{faults.DMAFault: 0.05}})
			u.SetFaults(injs[i])
		}
		rng := rand.New(rand.NewSource(seed))
		iova := func() IOVA {
			switch rng.Intn(8) {
			case 0:
				return loopHuge + IOVA(rng.Intn(mem.HugePageSize))
			case 1: // the top pages of the domain and past its width
				return maxIOVA - IOVA(2*mem.PageSize) + IOVA(rng.Intn(4*mem.PageSize))
			case 2: // an alias of a mapped page, 2^48 above it
				return IOVA(1)<<iovaBits + loopBase + IOVA(rng.Intn(loopPages*mem.PageSize))
			default:
				return loopBase + IOVA(rng.Intn((loopPages+4)*mem.PageSize))
			}
		}
		for step := 0; step < 6000; step++ {
			dev := rng.Intn(5)
			v := iova()
			write := rng.Intn(2) == 0
			n := rng.Intn(3*mem.PageSize) + 1
			var op, g, w string
			switch k := rng.Intn(100); {
			case k < 20:
				op = "translate"
				pa, err := got.Translate(dev, v, write)
				rpa, rerr := ref.translate(dev, v, write)
				g, w = fmt.Sprint(pa, err), fmt.Sprint(rpa, rerr)
			case k < 45:
				op = "span"
				n = rng.Intn(20 * mem.PageSize)
				g, w = fmt.Sprint(got.TranslateSpan(dev, v, n, write)), fmt.Sprint(ref.span(dev, v, n, write))
			case k < 60:
				op = "read"
				b, rb := make([]byte, n), make([]byte, n)
				nd, err := got.DMARead(dev, v, b)
				rnd, rerr := ref.dma(dev, v, rb, n, false)
				g, w = fmt.Sprint(nd, err, b), fmt.Sprint(rnd, rerr, rb)
			case k < 75:
				op = "write"
				b := make([]byte, n)
				rng.Read(b)
				nd, err := got.DMAWrite(dev, v, b)
				rnd, rerr := ref.dma(dev, v, b, n, true)
				g, w = fmt.Sprint(nd, err), fmt.Sprint(rnd, rerr)
			case k < 85:
				op = "touch"
				nd, err := got.DMATouch(dev, v, n)
				rnd, rerr := ref.dma(dev, v, nil, n, false)
				g, w = fmt.Sprint(nd, err), fmt.Sprint(rnd, rerr)
			case k < 89: // a deferred-style unmap: stale entries stay live
				op = "remap"
				p := loopBase + IOVA(rng.Intn(loopPages))<<mem.PageShift
				for _, u := range []*IOMMU{got, refU} {
					if u.Unmap(1, p, mem.PageSize) == nil {
						u.Map(1, p, allocPA(t, u.mem, 0), mem.PageSize, PermRead) //nolint:errcheck
					}
				}
			case k < 93:
				op = "invalidate range"
				got.TLB().InvalidateRange(dev, v, n)
				ref.tlb.InvalidateRange(dev, v, n)
			case k < 95:
				op = "invalidate device"
				got.TLB().InvalidateDevice(dev)
				ref.tlb.InvalidateDevice(dev)
			case k < 97:
				op = "passthrough"
				pt := rng.Intn(2) == 0
				got.Domain(2).Passthrough, refU.Domain(2).Passthrough = pt, pt
			case k < 98:
				op = "detach"
				for _, u := range []*IOMMU{got, refU} {
					if u.Attached(3) {
						u.DetachDevice(3)
					} else {
						u.AttachDevice(3)
					}
				}
				got.TLB().InvalidateDevice(3)
				ref.tlb.InvalidateDevice(3)
			default:
				op = "fault filter"
				f := rng.Intn(4) - 1
				for _, inj := range injs {
					inj.SetDeviceFilter(faults.DMAFault, f)
				}
			}
			if g != w {
				t.Fatalf("seed %d step %d: %s(dev %d, %#x, %d, write %v) = %s, per page %s", seed, step, op, dev, v, n, write, g, w)
			}
			gt, rt := got.TLB(), ref.tlb
			if got.Translations != refU.Translations || gt.Hits != rt.Hits || gt.Misses != rt.Misses || gt.Invalidations != rt.Invalidations {
				t.Fatalf("seed %d step %d (%s): translations/hits/misses/invalidations %d/%d/%d/%d, per page %d/%d/%d/%d",
					seed, step, op, got.Translations, gt.Hits, gt.Misses, gt.Invalidations, refU.Translations, rt.Hits, rt.Misses, rt.Invalidations)
			}
			if g, w := got.ReadFaultRecords(), refU.ReadFaultRecords(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d (%s): fault records %+v, per page %+v", seed, step, op, g, w)
			}
			for d := 0; d < 5; d++ {
				rec, over, probes := got.DeviceFaultStats(d)
				rrec, rover, rprobes := refU.DeviceFaultStats(d)
				if got.BlockedDMAsFor(d) != refU.BlockedDMAsFor(d) || rec != rrec || over != rover || probes != rprobes {
					t.Fatalf("seed %d step %d (%s): dev %d blocked %d, records %d/%d/%d; per page %d, %d/%d/%d", seed, step, op, d,
						got.BlockedDMAsFor(d), rec, over, probes, refU.BlockedDMAsFor(d), rrec, rover, rprobes)
				}
			}
		}
		if got.BlockedDMAs == 0 || injs[0].Injected(faults.DMAFault) == 0 || got.TLB().Hits == 0 || got.TLB().Invalidations == 0 {
			t.Fatalf("seed %d: %d blocked, %d injected, %d hits, %d invalidations; the mix exercised too little",
				seed, got.BlockedDMAs, injs[0].Injected(faults.DMAFault), got.TLB().Hits, got.TLB().Invalidations)
		}
		if injs[0].ScheduleDigest() != injs[1].ScheduleDigest() {
			t.Fatalf("seed %d: fault schedules diverged", seed)
		}
	}
}
