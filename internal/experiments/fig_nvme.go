package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// FioRow is one point of Fig 11: IOPS + CPU for one (scheme, block size).
type FioRow struct {
	Scheme    string
	BlockSize int
	KIOPS     float64
	GiBps     float64
	CPUUtil   float64
}

// Fig11 reproduces Figure 11: fio asynchronous direct sequential reads from
// the NVMe SSD under the prior protection schemes (DAMN is incompatible
// with storage, §2.2, so it is not a column — its machines fall back to
// deferred for the SSD anyway).
func Fig11(opts Options) ([]FioRow, error) {
	warm, dur := opts.durations()
	blocks := []int{512, 4 << 10, 32 << 10, 64 << 10}
	if opts.Quick {
		blocks = []int{512, 32 << 10}
	}
	schemes := []testbed.Scheme{
		testbed.SchemeOff, testbed.SchemeDeferred, testbed.SchemeStrict, testbed.SchemeShadow,
	}
	type spec struct {
		scheme testbed.Scheme
		bs     int
	}
	var specs []spec
	for _, scheme := range schemes {
		for _, bs := range blocks {
			specs = append(specs, spec{scheme, bs})
		}
	}
	return runJobs(opts, len(specs), func(i int, opts Options) (FioRow, error) {
		scheme, bs := specs[i].scheme, specs[i].bs
		cfg := opts.machineCfg(scheme, 256<<20, 0)
		cfg.NoNIC = true
		return withMachine(opts, fmt.Sprintf("fig11/%s-%dB", scheme, bs), cfg, func(ma *testbed.Machine) (FioRow, error) {
			nvme := device.NewNVMe(ma.Sim, ma.IOMMU, ma.Model, ma.Cores,
				device.DefaultP3700(testbed.NVMeDeviceID))
			res, err := workloads.RunFio(workloads.FioConfig{
				Machine: ma, NVMe: nvme, BlockSize: bs,
				Warmup: warm, Duration: dur,
			})
			if err != nil {
				return FioRow{}, err
			}
			return FioRow{
				Scheme: string(scheme), BlockSize: bs,
				KIOPS: res.IOPS / 1e3, GiBps: res.GiBps, CPUUtil: res.CPUUtil,
			}, nil
		})
	})
}

// RenderFig11 renders the figure as text.
func RenderFig11(rows []FioRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme, fmt.Sprintf("%d", r.BlockSize),
			fmt.Sprintf("%.0f", r.KIOPS), fmt.Sprintf("%.2f", r.GiBps), pct(r.CPUUtil),
		})
	}
	return "Figure 11: fio direct reads from NVMe (12 threads)\n" +
		RenderTable([]string{"scheme", "block B", "K IOPS", "GiB/s", "CPU"}, cells)
}
