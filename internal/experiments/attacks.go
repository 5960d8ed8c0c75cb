package experiments

import (
	"errors"
	"fmt"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/recovery"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// The DMA attack catalog (§2.1, §4.1): every attack a compromised device
// mounts in this repository, one function per scenario. Each scenario
// attacks a fresh machine and reports whether the attack landed. The attacks
// figure mounts every scenario against every scheme it applies to; Table 1
// and the bypass figure read their safety columns from the same functions
// (see safety).

// AttackRow is one cell of the attack matrix: one scenario mounted against
// one scheme.
type AttackRow struct {
	Scheme   string
	Scenario string
	Landed   bool
	// Detail says what the device tried, or what stopped it.
	Detail string
}

// outcome is what one scenario observed.
type outcome struct {
	landed bool
	detail string
}

// scenario is one attack: it applies to some schemes, and attack mounts it
// on a fresh machine that machine describes.
type scenario struct {
	name    string
	applies func(testbed.Scheme) bool
	machine func(opts Options, scheme testbed.Scheme) testbed.MachineConfig
	attack  func(ma *testbed.Machine) (outcome, error)
}

func anyScheme(testbed.Scheme) bool      { return true }
func kernelScheme(s testbed.Scheme) bool { return !testbed.IsBypass(s) }

// attackCfg is the machine most scenarios attack: 64 MiB of RAM and
// 8-descriptor rings.
func attackCfg(opts Options, scheme testbed.Scheme) testbed.MachineConfig {
	return opts.machineCfg(scheme, 64<<20, 8)
}

// probeCfg is the tenant probe's machine: two cores for each of its two
// tenants and a zero-rate fault plane that the attack storms.
func probeCfg(opts Options, scheme testbed.Scheme) testbed.MachineConfig {
	return opts.harnessCfg(scheme, 4, 0)
}

// scenarios is the attack matrix's scenario order.
var scenarios = []scenario{
	{"arbitrary-read", anyScheme, attackCfg, arbitraryRead},
	{"co-location", anyScheme, attackCfg, coLocation},
	{"window-write", anyScheme, attackCfg, windowWrite},
	{"tocttou-header", anyScheme, attackCfg, headerTOCTTOU},
	{"fault-storm", anyScheme, attackCfg, faultStorm},
	// The bypass flavors hand the whole queue pair to one app, so SR-IOV
	// tenancy does not apply to them.
	{"tenant-probe", kernelScheme, probeCfg, tenantProbe},
	{"pool-escape", testbed.IsBypass, attackCfg, poolEscape},
	{"pool-window", testbed.IsBypass, attackCfg, poolWindow},
}

// kernelSecret is what the read scenarios hunt for.
const kernelSecret = "KERNEL-SECRET-KEY"

// Attacks mounts every scenario against every scheme it applies to — the
// five kernel schemes, then the bypass pair — one job and one machine per
// pair, emitted as "attacks/<scheme>/<scenario>", and returns the matrix in
// scheme × scenario order.
func Attacks(opts Options) ([]AttackRow, error) {
	type pair struct {
		scheme testbed.Scheme
		sc     scenario
	}
	var pairs []pair
	for _, scheme := range withBypass() {
		for _, sc := range scenarios {
			if sc.applies(scheme) {
				pairs = append(pairs, pair{scheme, sc})
			}
		}
	}
	return runJobs(opts, len(pairs), func(i int, opts Options) (AttackRow, error) {
		p := pairs[i]
		label := "attacks/" + string(p.scheme) + "/" + p.sc.name
		o, err := withMachine(opts, label, p.sc.machine(opts, p.scheme), p.sc.attack)
		if err != nil {
			return AttackRow{}, fmt.Errorf("attacks %s/%s: %w", p.scheme, p.sc.name, err)
		}
		return AttackRow{Scheme: string(p.scheme), Scenario: p.sc.name, Landed: o.landed, Detail: o.detail}, nil
	})
}

// safety mounts the two attacks behind the subpage-safe and no-window
// columns of Table 1 and the bypass figure; a column is true when its
// attack was blocked. Kernel schemes face co-location and window-write;
// the bypass flavors face the same questions at their pool boundary. The
// attacked machines stay out of the figure's stats, so they carry no label.
func safety(scheme testbed.Scheme, opts Options) (subpage, noWindow bool, err error) {
	opts.OnStats = nil
	reach, window := coLocation, windowWrite
	if testbed.IsBypass(scheme) {
		reach, window = poolEscape, poolWindow
	}
	r, err := withMachine(opts, "", attackCfg(opts, scheme), reach)
	if err != nil {
		return false, false, err
	}
	w, err := withMachine(opts, "", attackCfg(opts, scheme), window)
	if err != nil {
		return false, false, err
	}
	return !r.landed, !w.landed, nil
}

// arbitraryRead: the device DMA-reads a kernel secret it was never given,
// at its physical address.
func arbitraryRead(ma *testbed.Machine) (outcome, error) {
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	secretPA, err := ma.Slab.Alloc(64, 0)
	if err != nil {
		return outcome{}, err
	}
	ma.Mem.Write(secretPA, []byte(kernelSecret))
	got, err := attacker.TryRead(iommu.IOVA(secretPA), len(kernelSecret))
	return outcome{err == nil && string(got) == kernelSecret,
		"device DMA-reads a kmalloc'ed secret at its physical address"}, nil
}

// coLocation: the device hunts a secret that shares a page with a mapped
// network buffer (sub-page granularity).
func coLocation(ma *testbed.Machine) (outcome, error) {
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	var lo, hi iommu.IOVA
	if ma.Damn == nil {
		// Legacy: a kmalloc'ed network buffer, mapped for the device; the
		// secret lands in the next slab object on the same page.
		bufPA, err := ma.Slab.Alloc(256, 0)
		if err != nil {
			return outcome{}, err
		}
		v, err := ma.DMA.Map(nil, testbed.NICDeviceID, bufPA, 256, dmaapi.ToDevice)
		if err != nil {
			return outcome{}, err
		}
		defer ma.DMA.Unmap(nil, testbed.NICDeviceID, v, 256, dmaapi.ToDevice)
		lo = v &^ iommu.IOVA(mem.PageMask)
		hi = lo + iommu.IOVA(mem.PageSize)
	} else {
		// DAMN: network buffers never share pages with kernel data; scan
		// the buffer's whole hugepage.
		skb, err := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 256, false)
		if err != nil {
			return outcome{}, err
		}
		v, _ := ma.Damn.IOVAOf(skb.HeadPA())
		lo = v &^ iommu.IOVA(mem.HugePageMask)
		hi = lo + iommu.IOVA(mem.HugePageSize)
	}
	secretPA, err := ma.Slab.Alloc(256, 0)
	if err != nil {
		return outcome{}, err
	}
	ma.Mem.Write(secretPA, []byte(kernelSecret))
	found, _ := attacker.ScanForSecret(lo, hi, []byte(kernelSecret))
	return outcome{len(found) > 0,
		"device hunts a secret co-located with a mapped network buffer"}, nil
}

// windowWrite: the device writes a buffer after dma_unmap returned (the
// deferred-invalidation TOCTTOU window). DAMN buffers stay mapped by design
// and the window is closed at the accessor (§5.2), so under DAMN the attack
// is the header rewrite of headerTOCTTOU.
func windowWrite(ma *testbed.Machine) (outcome, error) {
	const detail = "device writes a buffer after dma_unmap returned"
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	if ma.Damn != nil {
		landed, err := rewriteInspected(ma, attacker)
		return outcome{landed, detail}, err
	}
	// Map, prime the IOTLB, unmap, attack. The attack lands when the
	// kernel's buffer changes: shadow's bounce buffer stays
	// device-writable, but the kernel got its copy at unmap.
	p, err := ma.Mem.AllocPages(0, 0)
	if err != nil {
		return outcome{}, err
	}
	pa := p.PFN().Addr()
	v, err := ma.DMA.Map(nil, testbed.NICDeviceID, pa, mem.PageSize, dmaapi.FromDevice)
	if err != nil {
		return outcome{}, err
	}
	if err := attacker.TryWrite(v, []byte("prime")); err != nil {
		return outcome{}, err
	}
	if err := ma.DMA.Unmap(nil, testbed.NICDeviceID, v, mem.PageSize, dmaapi.FromDevice); err != nil {
		return outcome{}, err
	}
	before := string(ma.Mem.Bytes(pa, 5))
	attacker.TOCTTOUFlip(v, []byte("evil!"), 3)
	return outcome{string(ma.Mem.Bytes(pa, 5)) != before, detail}, nil
}

// headerTOCTTOU: the device rewrites packet headers after the firewall
// inspected them.
func headerTOCTTOU(ma *testbed.Machine) (outcome, error) {
	landed, err := rewriteInspected(ma, device.NewMalicious(ma.IOMMU, testbed.NICDeviceID))
	return outcome{landed, "device rewrites packet headers after firewall inspection"}, err
}

// rewriteInspected receives a packet into a network buffer the way the
// driver does, lets the OS inspect its header, then has the device rewrite
// the buffer. It reports whether the OS's view of the inspected bytes
// changed.
func rewriteInspected(ma *testbed.Machine, attacker *device.Malicious) (bool, error) {
	packet := []byte("SRC=10.0.0.1 OK")
	var skb *netstack.SKBuff
	var v iommu.IOVA
	var err error
	if ma.Damn != nil {
		if skb, err = netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 2048, true); err != nil {
			return false, err
		}
		v, _ = ma.Damn.IOVAOf(skb.HeadPA())
	} else {
		if skb, err = netstack.AllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 2048, true); err != nil {
			return false, err
		}
		if v, err = skb.MapForDevice(nil, dmaapi.FromDevice); err != nil {
			return false, err
		}
	}
	if _, err := ma.IOMMU.DMAWrite(testbed.NICDeviceID, v, packet); err != nil {
		return false, err
	}
	skb.SetReceived(len(packet), len(packet))
	if ma.Damn == nil {
		if err := skb.UnmapForDevice(nil, dmaapi.FromDevice); err != nil {
			return false, err
		}
	}
	before, err := skb.Access(nil, len(packet))
	if err != nil {
		return false, err
	}
	saved := string(before)
	attacker.TOCTTOUFlip(v, []byte("SRC=66.6.6.6 NO"), 3)
	after, err := skb.Access(nil, len(packet))
	return string(after) != saved, err
}

// faultStorm: the device hammers translations it owns no mapping for, with
// the recovery supervisor attached. The attack is contained when the
// supervisor quarantines the device and heals the domain; with the IOMMU in
// passthrough there are no fault records and the storm sails through.
func faultStorm(ma *testbed.Machine) (outcome, error) {
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	sup := recovery.Attach(ma)
	defer sup.Stop()
	stop := ma.Sim.Every(2*sim.Microsecond, func() {
		attacker.TryRead(iommu.IOVA(0xfeed0000), 64)
	})
	deadline := ma.Sim.Now() + 20*sim.Millisecond
	for ma.Sim.Now() < deadline && sup.State(testbed.NICDeviceID) != recovery.Quarantined {
		ma.Sim.Run(ma.Sim.Now() + 10*sim.Microsecond)
	}
	stop()
	for ma.Sim.Now() < deadline {
		st := sup.State(testbed.NICDeviceID)
		if st == recovery.Healthy || st == recovery.Failed {
			break
		}
		ma.Sim.Run(ma.Sim.Now() + 10*sim.Microsecond)
	}
	if sup.Storms > 0 && sup.State(testbed.NICDeviceID) == recovery.Healthy {
		return outcome{false, fmt.Sprintf("storm detected, device quarantined and healed (MTTR %.1fµs)",
			float64(sup.MTTR(testbed.NICDeviceID))/1e6)}, nil
	}
	return outcome{true, "storm DMAs flowed without detection — no fault records, no containment"}, nil
}

// tenantProbe re-parents the attacker as a compromised tenant virtual
// function on a two-tenant machine: forged capabilities, probes into the
// sibling's IOVA ranges and a VF-filtered fault storm, with the containment
// ladder armed. The attack lands if any probe reads the sibling's memory.
func tenantProbe(ma *testbed.Machine) (outcome, error) {
	res, err := workloads.RunTenants(workloads.TenantsConfig{
		Machine: ma, Tenants: 2,
		Warmup: 1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
		Attack: true, AttackLen: 3 * sim.Millisecond,
	})
	if err != nil {
		return outcome{}, err
	}
	if res.ProbesLanded > 0 {
		return outcome{true, fmt.Sprintf("%d cross-tenant probes read the neighbour's memory (attacker %s)",
			res.ProbesLanded, res.AttackerState)}, nil
	}
	return outcome{false, fmt.Sprintf("probes blocked (%d classified), %d forged caps denied, attacker %s",
		res.ProbesBlocked, res.CapDenials, res.AttackerState)}, nil
}

// setupPool runs the polling driver's Setup on a fresh bypass machine,
// registering its hugepage pool: the state the pool scenarios attack. It
// fails when Setup has not run (its core was still busy), rather than let
// a scenario probe an empty domain.
func setupPool(ma *testbed.Machine) (*netstack.BypassDriver, error) {
	d := netstack.NewBypassDriver(ma.Kernel, ma.NIC, 0, testbed.BypassDeviceID,
		ma.Cfg.Scheme == testbed.SchemeBypassProt)
	err := errors.New("bypass driver setup did not run: its core is busy")
	d.Core().Submit(false, func(t *sim.Task) { err = d.Setup(t) })
	ma.Sim.Run(ma.Sim.Now())
	return d, err
}

// poolEscape: under the app's DMA identity, the device reads a kernel
// secret outside the registered pool. bypass-raw runs passthrough, so the
// probe reads anything; bypass-prot's per-app domain maps exactly the pool
// hugepages, so the probe faults at the pool boundary.
func poolEscape(ma *testbed.Machine) (outcome, error) {
	d, err := setupPool(ma)
	if err != nil {
		return outcome{}, err
	}
	defer d.Close()
	secretPA, err := ma.Slab.Alloc(64, 0)
	if err != nil {
		return outcome{}, err
	}
	ma.Mem.Write(secretPA, []byte(kernelSecret))
	attacker := device.NewMalicious(ma.IOMMU, testbed.BypassDeviceID)
	got, err := attacker.TryRead(iommu.IOVA(secretPA), len(kernelSecret))
	if err == nil && string(got) == kernelSecret {
		return outcome{true, "app's DMA identity reads a kernel secret outside its registered pool"}, nil
	}
	return outcome{false, fmt.Sprintf("probe outside the registered pool faulted (%d hugepages mapped, nothing else)",
		len(d.PoolChunks()))}, nil
}

// poolWindow: the device rewrites a pool buffer after the app consumed it.
// With permanent mappings the window never closes under either flavor —
// the protection DAMN's accessor copies add and kernel bypass gives up.
func poolWindow(ma *testbed.Machine) (outcome, error) {
	d, err := setupPool(ma)
	if err != nil {
		return outcome{}, err
	}
	defer d.Close()
	attacker := device.NewMalicious(ma.IOMMU, testbed.BypassDeviceID)
	bufPA := d.PoolChunks()[0].PFN().Addr()
	return outcome{attacker.TOCTTOUFlip(iommu.IOVA(bufPA), []byte("evil!"), 3),
		"device rewrites a pool buffer after the app consumed it"}, nil
}

// RenderAttacks renders the attack matrix.
func RenderAttacks(rows []AttackRow) string {
	var cells [][]string
	for _, r := range rows {
		verdict := "BLOCKED"
		if r.Landed {
			verdict = "LANDED"
		}
		cells = append(cells, []string{r.Scheme, r.Scenario, verdict, r.Detail})
	}
	return "Attacks: a compromised NIC mounts every DMA attack against each configuration\n" +
		RenderTable([]string{"scheme", "scenario", "verdict", "detail"}, cells)
}
