package workloads

import (
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

// FioConfig models §6.5: fio threads doing asynchronous direct sequential
// reads from the NVMe SSD. Direct I/O bypasses the page cache, so the
// user's buffers are the DMA buffers — each read is a dma_map, a device
// command and a dma_unmap under the active protection scheme. (This is
// exactly the path DAMN cannot serve, §2.2, which is why the prior schemes
// remain in charge of storage.)
type FioConfig struct {
	Machine *testbed.Machine
	NVMe    *device.NVMe
	// BlockSize per read.
	BlockSize int
	Duration  sim.Time
	Warmup    sim.Time
}

// FioResult is one Fig 11 point.
type FioResult struct {
	Scheme    string
	BlockSize int
	IOPS      float64
	GiBps     float64
	CPUUtil   float64
}

type fioThread struct {
	cfg  *FioConfig
	qp   int
	core *sim.Core
	buf  mem.PhysAddr // reused user buffer (sequential reads into the same VMA)
	ops  uint64
	stop bool
}

const (
	// fioThreadCount is the number of fio threads (12 in the paper), one
	// queue pair and one core each.
	fioThreadCount int = 12
	// fioDepth is per-thread async queue depth.
	fioDepth int = 16
)

// RunFio executes one block-size point.
func RunFio(cfg FioConfig) (FioResult, error) {
	ma := cfg.Machine
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 4096
	}
	if cfg.Duration == 0 {
		cfg.Duration = 50 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 10 * sim.Millisecond
	}

	threads := make([]*fioThread, fioThreadCount)
	for i := range threads {
		// O_DIRECT user buffer: page-aligned anonymous memory.
		order := 0
		for (mem.PageSize << order) < cfg.BlockSize {
			order++
		}
		p, err := ma.Mem.AllocPages(order, i%ma.Model.NumNodes)
		if err != nil {
			return FioResult{}, err
		}
		th := &fioThread{cfg: &cfg, qp: i, core: ma.Cores[i%len(ma.Cores)], buf: p.PFN().Addr()}
		threads[i] = th
		for d := 0; d < fioDepth; d++ {
			th.submit()
		}
	}

	ma.Sim.Run(cfg.Warmup)
	var ops0 uint64
	for _, th := range threads {
		ops0 += th.ops
	}
	w := ma.OpenWindow()
	ma.Sim.Run(ma.Sim.Now() + cfg.Duration)
	m := w.Close()
	var ops uint64
	for _, th := range threads {
		th.stop = true
		ops += th.ops
	}
	iops := m.PerSec(ops - ops0)
	return FioResult{
		Scheme:    ma.SchemeName(),
		BlockSize: cfg.BlockSize,
		IOPS:      iops,
		GiBps:     iops * float64(cfg.BlockSize) / (1 << 30),
		CPUUtil:   m.CPUUtil(),
	}, nil
}

// submit issues one async read: map the user buffer, command the device,
// and on completion unmap and immediately resubmit (fio keeps the queue
// full).
func (th *fioThread) submit() {
	if th.stop {
		// Keep the pipeline running so IOPS stay in steady state for
		// result accounting, but stop counting.
		return
	}
	ma := th.cfg.Machine
	th.core.Submit(false, func(t *sim.Task) {
		perf.Charge(t, ma.Model.FioPerIOCycles/2) // submission half
		v, err := ma.Kernel.DMA.Map(t, testbed.NVMeDeviceID, th.buf, th.cfg.BlockSize, dmaapi.FromDevice)
		if err != nil {
			return
		}
		err = th.cfg.NVMe.SubmitRead(th.qp, v, th.cfg.BlockSize, func(t2 *sim.Task, derr error) {
			perf.Charge(t2, ma.Model.FioPerIOCycles/2) // completion half
			if uerr := ma.Kernel.DMA.Unmap(t2, testbed.NVMeDeviceID, v, th.cfg.BlockSize, dmaapi.FromDevice); uerr != nil {
				// The buffer's mapping state is unknown; drop this I/O,
				// count the error and keep the queue pumping.
				ma.Stats.Counter("workloads", "fio_unmap_errors").Inc()
				th.submit()
				return
			}
			if derr == nil {
				th.ops++
			}
			th.submit()
		})
		if err != nil {
			// Queue full: retry when the device drains a little.
			ma.Sim.After(5*sim.Microsecond, th.submit)
			ma.Kernel.DMA.Unmap(t, testbed.NVMeDeviceID, v, th.cfg.BlockSize, dmaapi.FromDevice)
		}
	})
}
