// Package damn is a faithful, simulation-backed Go reproduction of
// "DAMN: Overhead-Free IOMMU Protection for Networking" (Markuze, Smolyar,
// Morrison, Tsafrir — ASPLOS 2018).
//
// The package exposes the whole system the paper builds and evaluates:
//
//   - the DAMN allocator itself (DMA caches, magazines, per-core bump
//     allocators, metadata-encoded IOVAs) — internal/damn;
//   - the substrate it needs: simulated physical memory with a buddy
//     allocator and compound pages, a VT-d-style IOMMU with an IOTLB and
//     invalidation queue, the kernel DMA API with the strict / deferred /
//     shadow-buffer baseline protection schemes, a miniature network stack
//     with the §5.2 accessor interposition, and NIC/NVMe/malicious device
//     models that DMA through the IOMMU;
//   - the paper's evaluation: one function per table and figure —
//     internal/experiments.
//
// Quick start — build a DAMN-protected machine and allocate a
// device-visible packet buffer:
//
//	m, err := damn.NewMachine(damn.Config{Scheme: damn.SchemeDAMN})
//	if err != nil { ... }
//	buf, err := m.AllocPacketBuffer(damn.RightsWrite, 2048)
//	// buf is permanently IOMMU-mapped for the NIC; m.Attacker() cannot
//	// reach anything else.
//
// To regenerate the paper's results, use the cmd/damnbench binary;
// damnbench -exp attacks mounts the DMA attacks of §2.1 against every
// configuration.
package damn

import (
	damncore "github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/testbed"
)

// Scheme selects the machine's IOMMU protection configuration.
type Scheme = testbed.Scheme

// The evaluated configurations (Table 1 plus the Table 3 variants).
const (
	SchemeOff           = testbed.SchemeOff
	SchemeStrict        = testbed.SchemeStrict
	SchemeDeferred      = testbed.SchemeDeferred
	SchemeShadow        = testbed.SchemeShadow
	SchemeDAMN          = testbed.SchemeDAMN
	SchemeDAMNHugeDense = testbed.SchemeDAMNHugeDense
	SchemeDAMNNoIOMMU   = testbed.SchemeDAMNNoIOMMU
	SchemeBypassRaw     = testbed.SchemeBypassRaw
	SchemeBypassProt    = testbed.SchemeBypassProt
)

// AllSchemes is the five-way comparison set of the evaluation.
var AllSchemes = testbed.AllSchemes

// Rights are DMA access rights for allocated buffers.
type Rights = iommu.Perm

// Access-right values (§5.1: read for TX, write for RX).
const (
	RightsRead  = iommu.PermRead
	RightsWrite = iommu.PermWrite
	RightsRW    = iommu.PermRW
)

// Config describes a machine to build.
type Config struct {
	// Scheme is the protection configuration (default: SchemeDAMN).
	Scheme Scheme
	// MemBytes of simulated RAM (default 1 GiB).
	MemBytes int64
	// Cores overrides the modelled 28-core testbed.
	Cores int
	// Seed makes runs reproducible.
	Seed int64
}

// Machine is a fully assembled simulated host: memory, IOMMU, cores, the
// DMA API under the chosen scheme, the (optional) DAMN allocator, the
// network stack and a dual-port 100 Gb/s NIC.
type Machine struct {
	tb *testbed.Machine
}

// NewMachine builds a machine.
func NewMachine(cfg Config) (*Machine, error) {
	scheme := cfg.Scheme
	if scheme == "" {
		scheme = SchemeDAMN
	}
	tb, err := testbed.NewMachine(testbed.MachineConfig{
		Scheme:   scheme,
		MemBytes: cfg.MemBytes,
		Cores:    cfg.Cores,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Machine{tb: tb}, nil
}

// Scheme returns the machine's protection configuration.
func (m *Machine) Scheme() Scheme { return m.tb.Cfg.Scheme }

// Testbed exposes the underlying assembly for advanced use (workload
// construction, direct access to the IOMMU, NIC, allocator and engine).
func (m *Machine) Testbed() *testbed.Machine { return m.tb }

// PacketBuffer is a network buffer handle returned by AllocPacketBuffer.
type PacketBuffer struct {
	m *Machine
	// Addr is the kernel (physical) address of the buffer.
	Addr mem.PhysAddr
	// DMAAddr is the address a device must use to reach it.
	DMAAddr iommu.IOVA
	// Size in bytes.
	Size int
	damn bool
	dir  dmaapi.Direction
}

// AllocPacketBuffer allocates a packet buffer for the machine's NIC with
// the given access rights — from DAMN when deployed (permanently mapped),
// otherwise from the kernel allocator + DMA API (scheme-dependent
// mapping). This is the damn_alloc + dma_map flow a driver performs.
func (m *Machine) AllocPacketBuffer(rights Rights, size int) (*PacketBuffer, error) {
	k := m.tb.Kernel
	pa, damnOwned, err := k.AllocBuffer(nil, testbed.NICDeviceID, rights, size)
	if err != nil {
		return nil, err
	}
	dir := dirFor(rights)
	v, err := k.DMA.Map(nil, testbed.NICDeviceID, pa, size, dir)
	if err != nil {
		k.FreeBuffer(nil, pa, damnOwned)
		return nil, err
	}
	return &PacketBuffer{m: m, Addr: pa, DMAAddr: v, Size: size, damn: damnOwned, dir: dir}, nil
}

// Free unmaps and releases the buffer.
func (b *PacketBuffer) Free() error {
	k := b.m.tb.Kernel
	if err := k.DMA.Unmap(nil, testbed.NICDeviceID, b.DMAAddr, b.Size, b.dir); err != nil {
		return err
	}
	return k.FreeBuffer(nil, b.Addr, b.damn)
}

// Bytes exposes the buffer's kernel-side contents. The slice is valid
// until Free.
func (b *PacketBuffer) Bytes() []byte { return b.m.tb.Mem.Bytes(b.Addr, b.Size) }

func dirFor(r Rights) dmaapi.Direction {
	switch r {
	case RightsRead:
		return dmaapi.ToDevice
	case RightsWrite:
		return dmaapi.FromDevice
	default:
		return dmaapi.Bidirectional
	}
}

// Attacker returns a malicious-device handle bound to the NIC's identity
// (§2.1's threat model: the compromised NIC attacks with its own ID).
func (m *Machine) Attacker() *device.Malicious {
	return device.NewMalicious(m.tb.IOMMU, testbed.NICDeviceID)
}

// DamnAllocator returns the DAMN allocator, or nil when the machine runs a
// baseline scheme.
func (m *Machine) DamnAllocator() *damncore.DAMN { return m.tb.Damn }

// NewSKB allocates a socket buffer through __alloc_skb (§5.7); rx selects
// device-write (receive) rights.
func (m *Machine) NewSKB(size int, rx bool) (*netstack.SKBuff, error) {
	return netstack.AllocSKB(m.tb.Kernel, nil, testbed.NICDeviceID, size, rx)
}
