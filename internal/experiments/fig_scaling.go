package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// ScalingRow is one point of the RSS scale-out figure: netperf RX
// throughput at a given simulated core count under one scheme.
type ScalingRow struct {
	Scheme  string
	Cores   int
	RXGbps  float64
	CPUUtil float64
}

// scalingCores are the simulated core counts of the figure.
var scalingCores = []int{1, 2, 4, 8, 16}

// Scaling is the multi-queue figure this repo adds beyond the paper: RSS
// spreads flows across one RX ring per core, each ring's NAPI context runs
// on its own core against its own DAMN shard, and throughput is plotted
// against core count. The per-scheme spread is the point — DAMN and
// iommu-off scale near-linearly while strict's invalidation lock flattens —
// and the run doubles as the shard-affinity gate: any completion on a
// foreign core or any out-of-range-CPU shard clamp fails the figure.
func Scaling(opts Options) ([]ScalingRow, error) {
	warm, dur := opts.durations()
	type spec struct {
		scheme testbed.Scheme
		cores  int
	}
	var specs []spec
	for _, scheme := range testbed.AllSchemes {
		for _, n := range scalingCores {
			specs = append(specs, spec{scheme, n})
		}
	}
	// The bypass family rides along as extra columns: same core counts,
	// but each core runs a polling queue pair instead of a NAPI context.
	for _, scheme := range testbed.BypassSchemes {
		for _, n := range scalingCores {
			specs = append(specs, spec{scheme, n})
		}
	}
	return runJobs(opts, len(specs), func(i int, opts Options) (ScalingRow, error) {
		scheme, n := specs[i].scheme, specs[i].cores
		cfg := opts.machineCfg(scheme, 1<<30, 32)
		cfg.Cores = n
		return withMachine(opts, fmt.Sprintf("scaling/%s-%d", scheme, n), cfg, func(ma *testbed.Machine) (ScalingRow, error) {
			if testbed.IsBypass(scheme) {
				// Polling path: no interrupt driver, so the wrong-core and
				// shard-clamp invariants don't apply — each queue pair is
				// pinned to its poll core by construction.
				res, err := workloads.RunBypass(workloads.BypassConfig{
					Machine: ma, Rings: n, Warmup: warm, Duration: dur,
				})
				if err != nil {
					return ScalingRow{}, err
				}
				// Injected DMA faults refuse used-ring publishes too, so
				// the gate holds only on a fault-free run.
				if opts.FaultRate <= 0 && res.PublishFaults != 0 {
					return ScalingRow{}, fmt.Errorf("scaling: %s/%d cores: %d used-ring publishes faulted", scheme, n, res.PublishFaults)
				}
				return ScalingRow{
					Scheme: res.Scheme, Cores: n,
					RXGbps: res.RXGbps, CPUUtil: res.CPUUtil,
				}, nil
			}
			res, err := workloads.RunScaling(workloads.ScalingConfig{
				Machine: ma, Warmup: warm, Duration: dur,
				ExtraCycles: extraScaling, Wakeup: true,
			})
			if err != nil {
				return ScalingRow{}, err
			}
			if res.WrongCore != 0 {
				return ScalingRow{}, fmt.Errorf("scaling: %s/%d cores: %d RX completions off their ring's core", scheme, n, res.WrongCore)
			}
			if res.ShardClamps != 0 {
				return ScalingRow{}, fmt.Errorf("scaling: %s/%d cores: %d DAMN shard CPU clamps", scheme, n, res.ShardClamps)
			}
			return ScalingRow{
				Scheme: res.Scheme, Cores: n,
				RXGbps: res.RXGbps, CPUUtil: res.CPUUtil,
			}, nil
		})
	})
}

// RenderScaling renders the figure: one row per scheme, one throughput
// column per core count.
func RenderScaling(rows []ScalingRow) string {
	header := []string{"scheme"}
	for _, n := range scalingCores {
		header = append(header, fmt.Sprintf("%d-core Gb/s", n))
	}
	byScheme := map[string][]ScalingRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byScheme[r.Scheme]; !ok {
			order = append(order, r.Scheme)
		}
		byScheme[r.Scheme] = append(byScheme[r.Scheme], r)
	}
	var cells [][]string
	for _, s := range order {
		row := []string{s}
		for _, r := range byScheme[s] {
			row = append(row, f1(r.RXGbps))
		}
		cells = append(cells, row)
	}
	return "Scaling: netperf RX throughput vs. simulated cores (RSS, one ring per core)\n" +
		RenderTable(header, cells)
}
