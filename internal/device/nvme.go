package device

import (
	"fmt"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

// NVMe models the Intel DC P3700 SSD of §6.5: submission/completion queue
// pairs, a command-rate ceiling (~900 K IOPS) and a data-rate ceiling
// (~3.2 GiB/s). Reads DMA-write their data into the host buffer through the
// IOMMU, so the protection schemes constrain it exactly as they do the NIC.
type NVMe struct {
	se    *sim.Engine
	u     *iommu.IOMMU
	model *perf.Model
	cores []*sim.Core

	ID int

	cmdRate *sim.FluidResource // commands/s
	dataBW  *sim.FluidResource // bytes/s

	// Queue depth per queue pair.
	QueueDepth int
	inFlight   []int

	Commands uint64
	Bytes    uint64
	Faults   uint64
}

// NVMeConfig sizes the device.
type NVMeConfig struct {
	ID         int
	MaxIOPS    float64 // command ceiling (P3700: ~900 K 512 B reads)
	MaxBytesPS float64 // data ceiling (~3.2 GiB/s)
	QueuePairs int
	QueueDepth int
}

// DefaultP3700 matches the paper's device.
func DefaultP3700(id int) NVMeConfig {
	return NVMeConfig{ID: id, MaxIOPS: 900e3, MaxBytesPS: 3.2 * (1 << 30), QueuePairs: 12, QueueDepth: 128}
}

// NewNVMe attaches the SSD; cores[i] serves queue pair i's completions.
func NewNVMe(se *sim.Engine, u *iommu.IOMMU, model *perf.Model, cores []*sim.Core, cfg NVMeConfig) *NVMe {
	return &NVMe{
		se:         se,
		u:          u,
		model:      model,
		cores:      cores,
		ID:         cfg.ID,
		cmdRate:    sim.NewFluidResource("nvme-cmd", cfg.MaxIOPS),
		dataBW:     sim.NewFluidResource("nvme-data", cfg.MaxBytesPS),
		QueueDepth: cfg.QueueDepth,
		inFlight:   make([]int, cfg.QueuePairs),
	}
}

// SubmitRead issues an asynchronous read of size bytes into the buffer at
// iova (already dma_mapped by the caller) on queue pair qp. done runs in
// interrupt context on the queue pair's core when the command completes.
func (d *NVMe) SubmitRead(qp int, v iommu.IOVA, size int, done func(t *sim.Task, err error)) error {
	if qp < 0 || qp >= len(d.inFlight) {
		return fmt.Errorf("device: bad NVMe queue pair %d", qp)
	}
	if d.inFlight[qp] >= d.QueueDepth {
		return fmt.Errorf("device: NVMe queue %d full", qp)
	}
	d.inFlight[qp]++
	now := d.se.Now()
	end := d.cmdRate.Reserve(now, 1)
	if e2 := d.dataBW.Reserve(now, float64(size)); e2 > end {
		end = e2
	}
	// The device writes the block through the IOMMU. A one-line probe
	// exercises translation; full payloads are unnecessary for Fig 11.
	probe := size
	if probe > 512 {
		probe = 512
	}
	_, err := d.u.DMAWrite(d.ID, v, make([]byte, probe))
	if err != nil {
		d.Faults++
	}
	d.Commands++
	d.Bytes += uint64(size)
	core := d.cores[qp%len(d.cores)]
	d.se.At(end, func() {
		d.inFlight[qp]--
		core.Submit(true, func(t *sim.Task) { done(t, err) })
	})
	return nil
}
