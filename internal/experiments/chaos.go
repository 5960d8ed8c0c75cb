package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// ChaosRow is one chaos-run summary: a workload driven under the
// deterministic fault schedule, with the evidence that the stack degraded
// instead of dying.
type ChaosRow struct {
	Workload string
	Scheme   string
	// Metric is the workload's headline number (Gb/s or TPS).
	Metric     float64
	MetricUnit string
	// Injected is the total fired-fault count; Counts the per-kind detail.
	Injected uint64
	Counts   string
	// Digest identifies the fault schedule (equal seed ⇒ equal digest).
	Digest uint64
	// Recovered evidence: fault records read, ITE retries, live chunks.
	FaultRecords uint64
	ITETimeouts  uint64
	// Recovery is the fault-domain supervisor's verdict: "off" when it was
	// not attached, else the NIC's final state plus intervention counts.
	Recovery string
}

// Chaos runs the chaos harness: netperf and memcached under a uniform
// fault schedule rooted at opts.FaultSeed, at workloads.ChaosRate or the
// run's FaultRate. Unlike the figures, this is not a paper experiment — it
// is the robustness gate that every degradation path stays panic-free and
// conservation holds. Chaos runs DAMN, the configuration with the deepest
// degradation chain (depot → bump → slow path → ErrNoMemory), on four
// cores: iteration speed over fidelity to the 28-core testbed.
func Chaos(opts Options) ([]ChaosRow, error) {
	rate := workloads.ChaosRate
	if opts.FaultRate > 0 {
		rate = opts.FaultRate
	}

	// Two independent jobs, one machine each.
	runs := []struct {
		label string
		run   func(ma *testbed.Machine) (ChaosRow, error)
	}{
		{"chaos/netperf", func(ma *testbed.Machine) (ChaosRow, error) {
			np, err := workloads.RunChaosNetperf(workloads.ChaosConfig{Machine: ma, Recovery: opts.Recovery})
			if err != nil {
				return ChaosRow{}, fmt.Errorf("chaos netperf: %w", err)
			}
			return ChaosRow{
				Workload: "netperf", Scheme: np.Netperf.Scheme,
				Metric: np.Netperf.TotalGbps, MetricUnit: "Gb/s",
				Injected: np.InjectedTotal, Counts: formatRes(&np),
				Digest:       np.ScheduleDigest,
				FaultRecords: np.FaultRecords, ITETimeouts: np.ITETimeouts,
				Recovery: formatRecovery(&np),
			}, nil
		}},
		{"chaos/memcached", func(ma *testbed.Machine) (ChaosRow, error) {
			mc, err := workloads.RunChaosMemcached(workloads.ChaosConfig{Machine: ma, Recovery: opts.Recovery})
			if err != nil {
				return ChaosRow{}, fmt.Errorf("chaos memcached: %w", err)
			}
			return ChaosRow{
				Workload: "memcached", Scheme: mc.Memcached.Scheme,
				Metric: mc.Memcached.TPS, MetricUnit: "op/s",
				Injected: mc.InjectedTotal, Counts: formatRes(&mc.ChaosResult),
				Digest:       mc.ScheduleDigest,
				FaultRecords: mc.FaultRecords, ITETimeouts: mc.ITETimeouts,
				Recovery: formatRecovery(&mc.ChaosResult),
			}, nil
		}},
	}
	return runJobs(opts, len(runs), func(i int, opts Options) (ChaosRow, error) {
		return withMachine(opts, runs[i].label, opts.harnessCfg(testbed.SchemeDAMN, 4, rate), runs[i].run)
	})
}

func formatRes(r *workloads.ChaosResult) string {
	top := ""
	var best uint64
	for k, n := range r.Injected {
		if n > best || (n == best && n > 0 && (top == "" || k < top)) {
			best, top = n, k
		}
	}
	if top == "" {
		return "none"
	}
	return fmt.Sprintf("%d kinds, most %s=%d", len(r.Injected), top, best)
}

// formatRecovery summarises the supervisor's involvement in one chaos run.
func formatRecovery(r *workloads.ChaosResult) string {
	if r.RecoveryFinal == "" || r.RecoveryFinal == "off" {
		return "off"
	}
	return fmt.Sprintf("%s (%d storms, %d resets)", r.RecoveryFinal, r.RecoveryStorms, r.RecoveryResets)
}

// RenderChaos formats the chaos summary.
func RenderChaos(rows []ChaosRow) string {
	header := []string{"workload", "scheme", "result", "faults injected", "fault records", "ITE retries", "recovery", "schedule digest"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload, r.Scheme,
			fmt.Sprintf("%.1f %s", r.Metric, r.MetricUnit),
			fmt.Sprintf("%d (%s)", r.Injected, r.Counts),
			fmt.Sprintf("%d", r.FaultRecords),
			fmt.Sprintf("%d", r.ITETimeouts),
			r.Recovery,
			fmt.Sprintf("%#x", r.Digest),
		})
	}
	return "Chaos harness — workloads under deterministic fault injection\n" +
		RenderTable(header, cells)
}
