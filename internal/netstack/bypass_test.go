package netstack_test

import (
	"testing"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// TestBypassCloseRevokesPool: once the polling driver has closed and
// returned its hugepage pool to the kernel, the app's DMA identity reaches
// none of it under bypass-prot, not even through the IOTLB entry a DMA
// cached while the pool was live.
func TestBypassCloseRevokesPool(t *testing.T) {
	ma := newMachine(t, testbed.SchemeBypassProt, 2)
	defer ma.Close()
	d := netstack.NewBypassDriver(ma.Kernel, ma.NIC, 0, testbed.BypassDeviceID, true)
	var err error
	d.Core().Submit(false, func(task *sim.Task) { err = d.Setup(task) })
	ma.Sim.Run(ma.Sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	pool := iommu.IOVA(d.PoolChunks()[0].PFN().Addr())
	buf := make([]byte, 64)
	if _, err := ma.IOMMU.DMARead(testbed.BypassDeviceID, pool, buf); err != nil {
		t.Fatalf("the live pool is not readable: %v", err)
	}
	d.Close()
	if n, err := ma.IOMMU.DMARead(testbed.BypassDeviceID, pool, buf); err == nil {
		t.Fatalf("after Close the app's identity read %d bytes of the freed pool at %#x", n, pool)
	}
	if got := ma.IOMMU.MappedPages(testbed.BypassDeviceID); got != 0 {
		t.Fatalf("%d pages still mapped in the app's domain after Close", got)
	}
	d.Close() // a second Close finds nothing left to release
}
