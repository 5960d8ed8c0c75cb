package netstack_test

import (
	"bytes"
	"testing"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

func newMachine(t testing.TB, scheme testbed.Scheme, cores int) *testbed.Machine {
	t.Helper()
	ma, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   scheme,
		MemBytes: 256 << 20,
		Cores:    cores,
		RingSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ma
}

// runRX injects one segment end-to-end and returns what the receiver saw.
func runRX(t *testing.T, ma *testbed.Machine, seg device.Segment) *netstack.Receiver {
	t.Helper()
	recv := &netstack.Receiver{K: ma.Kernel}
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		recv.HandleSegment(task, skb)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	ma.NIC.InjectRX(0, seg)
	ma.Sim.RunUntilIdle()
	return recv
}

func TestRXEndToEndAllSchemes(t *testing.T) {
	for _, scheme := range testbed.AllSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			ma := newMachine(t, scheme, 2)
			recv := runRX(t, ma, device.Segment{
				Flow: 1, Len: 9000, Header: []byte("hdr:flow1"),
			})
			if recv.Segments != 1 {
				t.Fatalf("segments = %d", recv.Segments)
			}
			if recv.Bytes != 9000 {
				t.Fatalf("bytes = %d", recv.Bytes)
			}
			if ma.NIC.RxBlocked != 0 {
				t.Fatalf("legitimate DMA blocked under %s", scheme)
			}
		})
	}
}

func TestRXPayloadIntegrity(t *testing.T) {
	// With a materialised payload, the user must read exactly what the
	// device sent, whatever the scheme (shadow copies through its pool;
	// DAMN delivers in place). A header-only segment delivered next reuses
	// the same pooled user buffer and must read its header, then zeroes —
	// none of the previous payload.
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*7) | 1
	}
	hdr := []byte("hdr:only")
	headerOnly := make([]byte, len(payload))
	copy(headerOnly, hdr)
	for _, scheme := range testbed.AllSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			ma := newMachine(t, scheme, 2)
			var user [][]byte
			ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
				// The copy is valid only until the skb is freed.
				user = append(user, bytes.Clone(skb.CopyToUser(task, skb.Len())))
				skb.Free(task)
			}
			if err := ma.FillAllRings(); err != nil {
				t.Fatal(err)
			}
			ma.NIC.InjectRX(0, device.Segment{
				Flow: 1, Len: len(payload), Payload: payload,
			})
			ma.Sim.RunUntilIdle()
			ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: len(payload), Header: hdr})
			ma.Sim.RunUntilIdle()
			if len(user) != 2 {
				t.Fatalf("delivered %d segments, want 2", len(user))
			}
			if !bytes.Equal(user[0], payload) {
				t.Fatalf("user data corrupted under %s", scheme)
			}
			if !bytes.Equal(user[1], headerOnly) {
				t.Fatalf("header-only segment under %s reads %q..., want its header then zeroes", scheme, user[1][:32])
			}
		})
	}
}

func TestTXEndToEndAllSchemes(t *testing.T) {
	for _, scheme := range testbed.AllSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			ma := newMachine(t, scheme, 2)
			snd := &netstack.Sender{
				K: ma.Kernel, Drv: ma.Driver, Core: ma.Cores[0],
				Ring: 0, PortID: 0, Flow: 1,
			}
			snd.Start()
			ma.Sim.Run(2 * sim.Millisecond)
			snd.Stop()
			ma.Sim.RunUntilIdle()
			if snd.Segments == 0 {
				t.Fatal("nothing transmitted")
			}
			if snd.Errors != 0 {
				t.Fatalf("sender errors: %d", snd.Errors)
			}
			if ma.NIC.TxBytes == 0 {
				t.Fatal("NIC saw no TX bytes")
			}
		})
	}
}

func TestSenderWindowEnforced(t *testing.T) {
	ma := newMachine(t, testbed.SchemeOff, 1)
	snd := &netstack.Sender{K: ma.Kernel, Drv: ma.Driver, Core: ma.Cores[0]}
	snd.Start()
	// Run less than one wire time (64 KiB at 100 Gb/s ≈ 5.2 us): no
	// completion can have arrived, so exactly the 16-segment window is
	// in flight.
	ma.Sim.Run(1 * sim.Microsecond)
	if got := ma.NIC.TxSegments; got != 16 {
		t.Fatalf("window violated: %d segments posted, want 16", got)
	}
	snd.Stop()
	ma.Sim.RunUntilIdle()
}

func TestDriverRefillsRing(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) { skb.Free(task) }
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ma.NIC.InjectRX(0, device.Segment{Len: 9000, Header: []byte("h")})
	}
	ma.Sim.RunUntilIdle()
	if got, err := ma.NIC.RXPosted(0); err != nil || got != 8 {
		t.Fatalf("ring not refilled: %d posted, want 8 (err %v)", got, err)
	}
	if ma.Driver.RxDelivered != 20 {
		t.Fatalf("delivered %d of 20", ma.Driver.RxDelivered)
	}
}

func TestAllocSKBFallbackWithoutDevice(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, err := netstack.AllocSKB(ma.Kernel, nil, -1, 2048, false)
	if err != nil {
		t.Fatal(err)
	}
	if skb.DamnOwned() {
		t.Fatal("NULL-device skb must use the ordinary kernel allocator (§5.7)")
	}
	skb.Free(nil)
}

func TestDmaAllocSKBUsesDamn(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, err := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 2048, true)
	if err != nil {
		t.Fatal(err)
	}
	if !skb.DamnOwned() {
		t.Fatal("dma_alloc_skb must allocate from DAMN")
	}
	if _, err := netstack.DmaAllocSKB(ma.Kernel, nil, -1, 64, true); err == nil {
		t.Fatal("dma_alloc_skb without a device should fail")
	}
	skb.Free(nil)
}

// TestDAMNTocttouDefence is the core §5.2 security property: once the OS
// has accessed packet bytes, the device cannot change what the OS sees.
func TestDAMNTocttouDefence(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	k := ma.Kernel

	// Receive path: a DAMN RX buffer with a materialised packet.
	skb, err := netstack.DmaAllocSKB(k, nil, testbed.NICDeviceID, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ma.Damn.IOVAOf(skb.HeadPA())
	if !ok {
		t.Fatal("no IOVA")
	}
	packet := []byte("SRC=10.0.0.1 DST=10.0.0.2 OK-PAYLOAD")
	if _, err := ma.IOMMU.DMAWrite(testbed.NICDeviceID, v, packet); err != nil {
		t.Fatal(err)
	}
	skb.SetReceived(len(packet), len(packet))

	// The firewall inspects the header...
	hdr, err := skb.Access(nil, 25)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr) != string(packet[:25]) {
		t.Fatalf("header read %q", hdr)
	}

	// ...and the compromised NIC immediately rewrites the packet (the
	// buffer is permanently writable — that is DAMN's design).
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	if err := attacker.TryWrite(v, []byte("SRC=66.6.6.66 DST=6.6.6.6 EVIL-DATA!!")); err != nil {
		t.Fatal("the device is expected to be able to write the live buffer")
	}

	// The OS's view of the *accessed* bytes must be unchanged.
	hdr2, err := skb.Access(nil, 25)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr2) != string(packet[:25]) {
		t.Fatalf("TOCTTOU: OS header view changed to %q", hdr2)
	}
	if skb.CopiedBytes == 0 {
		t.Fatal("no TOCTTOU copying recorded")
	}
	skb.Free(nil)
}

// TestDeferredTocttouVulnerable shows the contrast (§4.1): under deferred
// protection the device can rewrite a buffer the OS is still reading.
func TestDeferredTocttouVulnerable(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDeferred, 1)
	k := ma.Kernel

	skb, err := netstack.AllocSKB(k, nil, testbed.NICDeviceID, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	v, err := skb.MapForDevice(nil, dmaapi.FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	packet := []byte("SRC=10.0.0.1 GOOD")
	if _, err := ma.IOMMU.DMAWrite(testbed.NICDeviceID, v, packet); err != nil {
		t.Fatal(err)
	}
	skb.SetReceived(len(packet), len(packet))
	// Driver unmaps; deferred leaves the IOTLB stale.
	if err := skb.UnmapForDevice(nil, dmaapi.FromDevice); err != nil {
		t.Fatal(err)
	}

	hdr, _ := skb.Access(nil, len(packet))
	if string(hdr) != string(packet) {
		t.Fatalf("first read %q", hdr)
	}
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	if !attacker.TOCTTOUFlip(v, []byte("SRC=66.6.6.66 EVIL"), 1) {
		t.Fatal("attack should land inside the deferred window")
	}
	hdr2, _ := skb.Access(nil, len(packet))
	if string(hdr2) == string(packet) {
		t.Fatal("expected deferred protection to be TOCTTOU-vulnerable (the paper's point)")
	}
	skb.Free(nil)
}

// TestStrictTocttouSafe: strict invalidates synchronously, so the same
// attack faults.
func TestStrictTocttouSafe(t *testing.T) {
	ma := newMachine(t, testbed.SchemeStrict, 1)
	skb, err := netstack.AllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	v, err := skb.MapForDevice(nil, dmaapi.FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	ma.IOMMU.DMAWrite(testbed.NICDeviceID, v, []byte("GOOD"))
	skb.SetReceived(4, 4)
	skb.UnmapForDevice(nil, dmaapi.FromDevice)
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	if attacker.TOCTTOUFlip(v, []byte("EVIL"), 3) {
		t.Fatal("strict protection let a post-unmap write land")
	}
	skb.Free(nil)
}

// TestDeferredUseAfterFreeLeak: inside the deferred window the device can
// also read kernel data placed in the recycled buffer (§4.1 "steal data
// placed in unmapped buffers after the OS reuses them").
func TestDeferredUseAfterFreeLeak(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDeferred, 1)
	skb, _ := netstack.AllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 2048, false)
	v, err := skb.MapForDevice(nil, dmaapi.ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the IOTLB with a legitimate read.
	if _, err := ma.IOMMU.DMARead(testbed.NICDeviceID, v, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	pa := skb.HeadPA()
	skb.UnmapForDevice(nil, dmaapi.ToDevice)
	skb.Free(nil)
	// The kernel reuses the memory for something sensitive...
	secretPA, err := ma.Slab.Alloc(2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if secretPA != pa {
		t.Skip("slab did not recycle the same object")
	}
	ma.Mem.Write(secretPA, []byte("TOP-SECRET-KEY"))
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	got, err := attacker.TryRead(v, 14)
	if err != nil {
		t.Fatal("read should succeed inside the window")
	}
	if string(got) != "TOP-SECRET-KEY" {
		t.Fatalf("read %q", got)
	}
	// After the flush the window closes.
	ma.Deferred.S.Flush(nil)
	if _, err := attacker.TryRead(v, 14); err == nil {
		t.Fatal("window should close after flush")
	}
}

// TestDAMNNoKernelDataExposure: under DAMN the device's reach is exactly
// the DAMN pages; recycled network buffers never hold non-network data.
func TestDAMNNoKernelDataExposure(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, _ := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 2048, true)
	v, _ := ma.Damn.IOVAOf(skb.HeadPA())
	skb.Free(nil)
	// The mapping is still live (by design). Whatever the device reads
	// or writes through it is DAMN memory — never slab/kernel memory.
	pa, err := ma.IOMMU.Translate(testbed.NICDeviceID, v, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ma.Damn.Owns(pa) {
		t.Fatal("DAMN mapping reaches non-DAMN memory")
	}
	// And a freshly created kernel secret is unreachable: scan the whole
	// device-visible space for it.
	secretPA, _ := ma.Slab.Alloc(256, 0)
	ma.Mem.Write(secretPA, []byte("SECRET-SAUCE"))
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	found, _ := attacker.ScanForSecret(v&^0xFFFFF, (v&^0xFFFFF)+1<<21, []byte("SECRET-SAUCE"))
	if len(found) != 0 {
		t.Fatal("device found kernel secret through DAMN mappings")
	}
}

func TestNetfilterDropsPacket(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	ma.Kernel.Netfilter.Register(func(task *sim.Task, skb *netstack.SKBuff) netstack.Verdict {
		hdr, _ := skb.Access(task, 4)
		if string(hdr) == "EVIL" {
			return netstack.Drop
		}
		return netstack.Accept
	})
	recv := runRX(t, ma, device.Segment{Len: 1500, Header: []byte("EVILpacket")})
	if recv.Dropped != 1 || recv.Segments != 0 {
		t.Fatalf("dropped=%d segments=%d", recv.Dropped, recv.Segments)
	}
}

func TestAccessorCopiesOnlyOnce(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, _ := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 4096, true)
	skb.SetReceived(4096, 0)
	skb.Access(nil, 128)
	if skb.CopiedBytes != 128 {
		t.Fatalf("CopiedBytes = %d", skb.CopiedBytes)
	}
	skb.Access(nil, 128) // same range: no extra copy
	if skb.CopiedBytes != 128 {
		t.Fatalf("re-access copied again: %d", skb.CopiedBytes)
	}
	skb.Access(nil, 1024) // extends the prefix
	if skb.CopiedBytes != 1024 {
		t.Fatalf("CopiedBytes = %d, want 1024", skb.CopiedBytes)
	}
	skb.Free(nil)
}

func TestAccessorNoCopyForTXBuffers(t *testing.T) {
	// TX buffers are read-only to the device, so no TOCTTOU copy is
	// needed (§5.6: TX security needs only zeroing).
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, _ := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 4096, false)
	skb.CopyFromUser(nil, []byte("outbound data"), 13)
	if _, err := skb.Access(nil, 13); err != nil {
		t.Fatal(err)
	}
	if skb.CopiedBytes != 0 {
		t.Fatalf("TX access copied %d bytes", skb.CopiedBytes)
	}
	skb.Free(nil)
}

func TestCopyToUserPrefersSafePrefix(t *testing.T) {
	// After the OS accessed the header, the user copy must come from the
	// safe prefix for those bytes even if the device rewrote the buffer.
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, _ := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 1024, true)
	v, _ := ma.Damn.IOVAOf(skb.HeadPA())
	ma.IOMMU.DMAWrite(testbed.NICDeviceID, v, []byte("HEADERpayload"))
	skb.SetReceived(13, 13)
	skb.Access(nil, 6) // header copied out
	attacker := device.NewMalicious(ma.IOMMU, testbed.NICDeviceID)
	attacker.TryWrite(v, []byte("EVILED"))
	user := skb.CopyToUser(nil, 13)
	if string(user[:6]) != "HEADER" {
		t.Fatalf("user sees tampered header %q", user[:6])
	}
	// The tail was not accessed pre-copy, so the device write there is
	// indistinguishable from a legitimate late DMA — either value is
	// acceptable per §5.6.
	skb.Free(nil)
}

// damnRXSKB builds a DAMN RX skb of logical length n whose first len(data)
// bytes the device wrote (the rest is never materialised).
func damnRXSKB(t *testing.T, ma *testbed.Machine, n int, data []byte) *netstack.SKBuff {
	t.Helper()
	skb, err := netstack.DmaAllocSKB(ma.Kernel, nil, testbed.NICDeviceID, n, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		v, _ := ma.Damn.IOVAOf(skb.HeadPA())
		if _, err := ma.IOMMU.DMAWrite(testbed.NICDeviceID, v, data); err != nil {
			t.Fatal(err)
		}
	}
	skb.SetReceived(n, len(data))
	return skb
}

// userCopy is one CopyToUser result, cloned before its skb was freed, plus
// the identity of the pooled buffer it came from.
type userCopy struct {
	data []byte
	buf  *byte
}

// copyAndFree runs the user copy of the whole skb and frees it, returning
// the copy's pooled buffer to the kernel.
func copyAndFree(skb *netstack.SKBuff) userCopy {
	user := skb.CopyToUser(nil, skb.Len())
	c := userCopy{data: bytes.Clone(user), buf: &user[0]}
	skb.Free(nil)
	return c
}

// checkCopy fails unless got is prefix followed by zeroes up to n bytes.
func checkCopy(t *testing.T, what string, got []byte, prefix []byte, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: copied %d bytes, want %d", what, len(got), n)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: prefix %q, want %q", what, got[:len(prefix)], prefix)
	}
	for i := len(prefix); i < n; i++ {
		if got[i] != 0 {
			t.Fatalf("%s: byte %d past the filled prefix is %#x, want 0", what, i, got[i])
		}
	}
}

// TestUserCopyRecycledBufferZeroTail pins the user-copy pool's watermark
// rule: a recycled buffer clears only what earlier copies dirtied, yet every
// copy must still read its filled prefix followed by exact zeroes.
func TestUserCopyRecycledBufferZeroTail(t *testing.T) {
	full := bytes.Repeat([]byte{0xa5}, 64<<10)
	hdr := []byte("ETH|IPv4|TCP header bytes")

	t.Run("after-full-64k-copy", func(t *testing.T) {
		ma := newMachine(t, testbed.SchemeDAMN, 1)
		var got []userCopy
		ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
			got = append(got, copyAndFree(skb))
		}
		if err := ma.FillAllRings(); err != nil {
			t.Fatal(err)
		}
		ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: len(full), Payload: full})
		ma.Sim.RunUntilIdle()
		ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: len(full), Header: hdr})
		ma.Sim.RunUntilIdle()
		if len(got) != 2 {
			t.Fatalf("delivered %d segments, want 2", len(got))
		}
		checkCopy(t, "materialised segment", got[0].data, full, len(full))
		if got[1].buf != got[0].buf {
			t.Fatal("header-only copy did not reuse the pooled buffer")
		}
		checkCopy(t, "header-only segment", got[1].data, hdr, len(full))
	})

	t.Run("short-then-longer", func(t *testing.T) {
		// The short copy leaves the dirtied [its length, 64 KiB) span of
		// the first copy behind it; the longer copy must not see it.
		ma := newMachine(t, testbed.SchemeDAMN, 1)
		short := bytes.Repeat([]byte{0x5a}, 1500)
		first := copyAndFree(damnRXSKB(t, ma, len(full), full))
		second := copyAndFree(damnRXSKB(t, ma, 4096, short))
		third := copyAndFree(damnRXSKB(t, ma, len(full), hdr))
		if second.buf != first.buf || third.buf != first.buf {
			t.Fatal("copies did not share the pooled buffer")
		}
		checkCopy(t, "full copy", first.data, full, len(full))
		checkCopy(t, "short copy", second.data, short, 4096)
		checkCopy(t, "longer copy", third.data, hdr, len(full))
	})

	t.Run("damn-safe-prefix-past-header", func(t *testing.T) {
		// The stack's accessor copies DamnHeaderBytes out of the device's
		// reach; that safe prefix is longer than the header the device
		// wrote, and the user copy takes all of it from the safe buffer.
		ma := newMachine(t, testbed.SchemeDAMN, 1)
		safeLen := ma.Model.DamnHeaderBytes
		if safeLen <= len(hdr) {
			t.Fatalf("DamnHeaderBytes %d does not extend past the %d-byte header", safeLen, len(hdr))
		}
		first := copyAndFree(damnRXSKB(t, ma, len(full), full))
		skb := damnRXSKB(t, ma, len(full), hdr)
		safe, err := skb.Access(nil, safeLen)
		if err != nil {
			t.Fatal(err)
		}
		safe = bytes.Clone(safe)
		second := copyAndFree(skb)
		if second.buf != first.buf {
			t.Fatal("safe-prefix copy did not reuse the pooled buffer")
		}
		checkCopy(t, "safe-prefix copy", second.data, safe, len(full))
	})
}

func TestSKBDoubleFreePanics(t *testing.T) {
	ma := newMachine(t, testbed.SchemeOff, 1)
	skb, _ := netstack.AllocSKB(ma.Kernel, nil, -1, 256, false)
	skb.Free(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	skb.Free(nil)
}

func TestRXFlowControlBackpressure(t *testing.T) {
	// With no receiver consuming (OnDeliver leaks the buffers without
	// refilling), the ring drains and the NIC parks traffic instead of
	// losing it.
	ma := newMachine(t, testbed.SchemeOff, 1)
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	// Swallow deliveries but prevent refill by exhausting the ring:
	// inject far more than RingSize with a driver that keeps buffers.
	var kept []*netstack.SKBuff
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		kept = append(kept, skb)
	}
	for i := 0; i < 100; i++ {
		ma.NIC.InjectRX(0, device.Segment{Len: 9000, Header: []byte("x")})
	}
	ma.Sim.RunUntilIdle()
	parked, err := ma.NIC.RXParked(0)
	if err != nil {
		t.Fatal(err)
	}
	if parked+int(ma.Driver.RxDelivered) != 100 {
		t.Fatalf("segments lost: parked %d + delivered %d != 100",
			parked, ma.Driver.RxDelivered)
	}
}

// TestZeroCopyFallback is §2.2: a sendfile-style transmit uses page-cache
// memory, which DAMN cannot own; the mapping must fall back to the legacy
// scheme (deferred on a DAMN machine), complete with its dynamic mapping
// and its security trade-offs.
func TestZeroCopyFallback(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 1)
	skb, err := netstack.AllocSKBPageCache(ma.Kernel, nil, testbed.NICDeviceID, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if skb.DamnOwned() {
		t.Fatal("page-cache skb must not be DAMN-owned")
	}
	skb.CopyFromUser(nil, []byte("file contents"), 8192)

	maps := ma.IOMMU.Mappings
	v, err := skb.MapForDevice(nil, dmaapi.ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if ma.IOMMU.Mappings == maps {
		t.Fatal("zero-copy map did not reach the legacy scheme")
	}
	// The device reads the file bytes through the dynamic mapping.
	got := make([]byte, 13)
	if _, err := ma.IOMMU.DMARead(testbed.NICDeviceID, v, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "file contents" {
		t.Fatalf("device read %q", got)
	}
	if err := skb.UnmapForDevice(nil, dmaapi.ToDevice); err != nil {
		t.Fatal(err)
	}
	// Deferred fallback: the unmap batched an invalidation (the window
	// the paper accepts for zero-copy paths).
	if ma.Deferred.S.PendingInvalidations() == 0 {
		t.Fatal("fallback unmap did not batch an invalidation")
	}
	skb.Free(nil)
}

// TestNAPIRunsOnRingCore is the shard-affinity invariant end to end: each
// ring's completions execute on the core its NAPI context is bound to (so
// every allocation and invalidation hits that core's DAMN shard), and the
// driver's wrong-core counter stays zero.
func TestNAPIRunsOnRingCore(t *testing.T) {
	ma := newMachine(t, testbed.SchemeDAMN, 4)
	coreOf := map[int]int{} // ring -> executing core
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		coreOf[ring] = task.Core().ID
		skb.Free(task)
	}
	if err := ma.FillAllRings(); err != nil {
		t.Fatal(err)
	}
	// The default indirection table is i % Rings over 128 slots, so hash h
	// (h < Rings) picks ring h: cover all four rings.
	for h := 0; h < 4; h++ {
		ma.NIC.InjectRX(0, device.Segment{
			Flow: h + 1, Hash: uint32(h), Len: 9000, Header: []byte("h"),
		})
	}
	ma.Sim.RunUntilIdle()
	if len(coreOf) != 4 {
		t.Fatalf("completions on %d rings, want 4 (%v)", len(coreOf), coreOf)
	}
	for ring, core := range coreOf {
		if want := ma.Driver.RingCore(ring).ID; core != want {
			t.Errorf("ring %d completion ran on core %d, want %d", ring, core, want)
		}
	}
	if ma.Driver.RxWrongCore != 0 {
		t.Fatalf("RxWrongCore = %d, want 0", ma.Driver.RxWrongCore)
	}
	if ma.Damn.ShardClamps() != 0 {
		t.Fatalf("ShardClamps = %d, want 0", ma.Damn.ShardClamps())
	}
}
