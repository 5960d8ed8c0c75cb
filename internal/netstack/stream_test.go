package netstack_test

import (
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

func TestSenderStopDrains(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	snd := &netstack.Sender{K: ma.Kernel, Drv: ma.Driver, Core: ma.Cores[0]}
	snd.Start()
	ma.Sim.Run(1 * sim.Millisecond)
	snd.Stop()
	ma.Sim.RunUntilIdle()
	// Everything transmitted must have completed; nothing in flight.
	if ma.NIC.TXInFlight(0) != 0 {
		t.Fatalf("in-flight after drain: %d", ma.NIC.TXInFlight(0))
	}
	if uint64(ma.NIC.TxSegments) != snd.Segments {
		t.Fatalf("NIC sent %d, sender completed %d", ma.NIC.TxSegments, snd.Segments)
	}
	// Buffer accounting balances: DAMN footprint is bounded by the
	// 16-segment window, not the total transmitted.
	if window := int64(16 * ma.Model.SegmentSize); ma.Damn.FootprintBytes() > window*4 {
		t.Fatalf("footprint %d for window %d", ma.Damn.FootprintBytes(), window)
	}
}

func TestSenderSurvivesTinyTxRing(t *testing.T) {
	// A TX ring smaller than the 16-segment window: PostTX fails
	// sometimes; the sender must retry via completions without losing
	// accounting.
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme: testbed.SchemeOff, MemBytes: 128 << 20, Cores: 1, RingSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild NIC with a 2-entry TX ring.
	nic := device.NewNIC(ma.Sim, ma.IOMMU, ma.Model, ma.MemBW, ma.Cores, device.NICConfig{
		ID: testbed.NICDeviceID, Ports: 1, RingSize: 4, TxRing: 2, Rings: 1,
		WireGbps: 100, PCIeGbps: 106,
	})
	drv := netstack.NewDriver(ma.Kernel, nic)
	drv.OnTxDone = netstack.DispatchTxDone
	snd := &netstack.Sender{K: ma.Kernel, Drv: drv, Core: ma.Cores[0]}
	snd.Start()
	ma.Sim.Run(2 * sim.Millisecond)
	snd.Stop()
	ma.Sim.RunUntilIdle()
	if snd.Segments == 0 {
		t.Fatal("nothing transmitted through the tiny ring")
	}
	if nic.TXInFlight(0) != 0 {
		t.Fatal("ring not drained")
	}
}

func TestReceiverCountsDrops(t *testing.T) {
	ma := newMachine(t, testbed.SchemeOff, 1)
	ma.Kernel.Netfilter.Register(func(task *sim.Task, skb *netstack.SKBuff) netstack.Verdict {
		return netstack.Drop
	})
	recv := runRX(t, ma, device.Segment{Len: 9000, Header: []byte("any")})
	if recv.Dropped != 1 || recv.Segments != 0 || recv.Bytes != 0 {
		t.Fatalf("dropped=%d segments=%d bytes=%d", recv.Dropped, recv.Segments, recv.Bytes)
	}
}

func TestDispatchTxDoneWithoutOwner(t *testing.T) {
	// Completions for unowned skbs must still free the buffer.
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, err := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 2048, false)
	if err != nil {
		t.Fatal(err)
	}
	skb.CopyFromUser(nil, nil, 2048)
	ma.Cores[0].Submit(false, func(task *sim.Task) {
		if err := ma.Driver.Transmit(task, 0, 0, skb); err != nil {
			t.Error(err)
		}
	})
	ma.Sim.RunUntilIdle()
	if ma.Driver.TxCompleted != 1 {
		t.Fatalf("TxCompleted = %d", ma.Driver.TxCompleted)
	}
	// The buffer was freed (footprint bounded to the recycled chunk).
	if got := ma.Damn.FootprintBytes(); got > int64(ma.Damn.ChunkBytes()) {
		t.Fatalf("footprint %d suggests a leak", got)
	}
}
