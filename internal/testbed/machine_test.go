package testbed

import (
	"fmt"
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
)

func TestNewMachineAllSchemes(t *testing.T) {
	schemes := append([]Scheme{}, AllSchemes...)
	schemes = append(schemes, SchemeDAMNHugeDense, SchemeDAMNNoIOMMU, SchemeDAMNSingleCtx, SchemeDAMNNoCache)
	for _, scheme := range schemes {
		ma, err := NewMachine(MachineConfig{Scheme: scheme, MemBytes: 128 << 20, Cores: 4, RingSize: 8})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if ma.Kernel == nil || ma.NIC == nil || ma.Driver == nil {
			t.Fatalf("%s: incomplete machine", scheme)
		}
		if err := ma.FillAllRings(); err != nil {
			t.Fatalf("%s: FillAllRings: %v", scheme, err)
		}
		for ring := range ma.Cores {
			if got, err := ma.NIC.RXPosted(ring); err != nil || got != 8 {
				t.Fatalf("%s: ring %d posted %d, want 8 (err %v)", scheme, ring, got, err)
			}
		}
	}
}

func TestMachineCoreNUMALayout(t *testing.T) {
	ma, err := NewMachine(MachineConfig{Scheme: SchemeOff, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(ma.Cores) != 28 {
		t.Fatalf("cores = %d", len(ma.Cores))
	}
	if ma.Cores[0].Node != 0 || ma.Cores[13].Node != 0 {
		t.Error("first socket mislaid")
	}
	if ma.Cores[14].Node != 1 || ma.Cores[27].Node != 1 {
		t.Error("second socket mislaid")
	}
}

func TestMachineSchemeSelection(t *testing.T) {
	cases := []struct {
		scheme   Scheme
		name     string
		hasDamn  bool
		deferred bool
	}{
		{SchemeOff, "iommu-off", false, false},
		{SchemeStrict, "strict", false, false},
		{SchemeDeferred, "deferred", false, true},
		{SchemeShadow, "shadow", false, false},
		{SchemeDAMN, "deferred", true, true}, // DAMN falls back to deferred
		{SchemeDAMNNoIOMMU, "iommu-off", true, false},
	}
	for _, c := range cases {
		ma, err := NewMachine(MachineConfig{Scheme: c.scheme, MemBytes: 64 << 20, Cores: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.scheme, err)
		}
		if got := ma.DMA.Scheme().Name(); got != c.name {
			t.Errorf("%s: scheme name %q, want %q", c.scheme, got, c.name)
		}
		if (ma.Damn != nil) != c.hasDamn {
			t.Errorf("%s: damn presence = %v", c.scheme, ma.Damn != nil)
		}
		if (ma.Deferred != nil) != c.deferred {
			t.Errorf("%s: deferred handle presence = %v", c.scheme, ma.Deferred != nil)
		}
	}
}

func TestMachinePassthroughConfigs(t *testing.T) {
	for _, scheme := range []Scheme{SchemeOff, SchemeDAMNNoIOMMU} {
		ma, err := NewMachine(MachineConfig{Scheme: scheme, MemBytes: 64 << 20, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !ma.IOMMU.Domain(NICDeviceID).Passthrough {
			t.Errorf("%s: NIC domain should be passthrough", scheme)
		}
	}
	ma, _ := NewMachine(MachineConfig{Scheme: SchemeDAMN, MemBytes: 64 << 20, Cores: 2})
	if ma.IOMMU.Domain(NICDeviceID).Passthrough {
		t.Error("damn: NIC domain must be translated")
	}
}

func TestMachineUnknownScheme(t *testing.T) {
	if _, err := NewMachine(MachineConfig{Scheme: "nonsense"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestMachineDamnInterposerWired(t *testing.T) {
	ma, err := NewMachine(MachineConfig{Scheme: SchemeDAMN, MemBytes: 128 << 20, Cores: 2, RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// An RX buffer allocated by the driver must be DAMN-owned, and its
	// mapping must bypass the fallback scheme entirely.
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	if ma.IOMMU.Unmappings != 0 {
		t.Error("ring fill should not unmap anything")
	}
	if ma.Deferred.S.PendingInvalidations() != 0 {
		t.Error("DAMN buffers leaked into the deferred batch")
	}
	if ma.Damn.FootprintBytes() == 0 {
		t.Error("no DAMN memory after ring fill")
	}
}

func TestMachineDeviceIsolationAcrossDevices(t *testing.T) {
	// The NVMe identity must not be able to use NIC mappings.
	ma, err := NewMachine(MachineConfig{Scheme: SchemeStrict, MemBytes: 64 << 20, Cores: 2, RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ma.Mem.AllocPages(0, 0)
	v, err := ma.DMA.Map(nil, NICDeviceID, p.PFN().Addr(), 4096, dmaapi.FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ma.IOMMU.Translate(NVMeDeviceID, v, true); err == nil {
		t.Fatal("NVMe identity used a NIC mapping")
	}
	recs := ma.IOMMU.ReadFaultRecords()
	if len(recs) == 0 {
		t.Fatal("no fault recorded")
	}
	if f := recs[len(recs)-1]; f.Dev != NVMeDeviceID {
		t.Fatalf("fault attributed to dev %d", f.Dev)
	}
	if n := ma.IOMMU.BlockedDMAsFor(NVMeDeviceID); n != 1 {
		t.Fatalf("blocked DMAs from the NVMe identity = %d, want 1", n)
	}
}

// TestMachineShardClampAttribution: DAMN requests that carry a CPU id the
// machine does not have are counted machine-wide and against the device
// that made them, and against no other device.
func TestMachineShardClampAttribution(t *testing.T) {
	ma, err := NewMachine(MachineConfig{Scheme: SchemeDAMN, MemBytes: 128 << 20, Cores: 4, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	x := damn.Ctx{CPU: 999}
	for i := 0; i < 3; i++ {
		pa, err := ma.Damn.Alloc(x, NVMeDeviceID, iommu.PermWrite, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if err := ma.Damn.Free(x, pa); err != nil {
			t.Fatal(err)
		}
	}
	snap := ma.StatsSnapshot()
	total := snap.Counter("damn/shard_cpu_clamps")
	if total == 0 || total != ma.Damn.ShardClamps() {
		t.Fatalf("damn/shard_cpu_clamps = %d, ShardClamps() = %d, want equal and positive", total, ma.Damn.ShardClamps())
	}
	key := fmt.Sprintf("damn/shard_cpu_clamps_dev%d", NVMeDeviceID)
	if got := snap.Counter(key); got != total {
		t.Errorf("%s = %d, want the machine's %d", key, got, total)
	}
	for k := range snap.Counters {
		if strings.HasPrefix(k, "damn/shard_cpu_clamps_dev") && k != key {
			t.Errorf("clamp attributed to another device: %s = %d", k, snap.Counters[k])
		}
	}
}
