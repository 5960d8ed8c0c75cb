package experiments

import (
	"fmt"

	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// ClusterRow is one scheme's row of the cluster figure: the incast storm
// and the distributed memcached scenario, both on multi-machine topologies
// where every endpoint pays its scheme's IOMMU costs.
type ClusterRow struct {
	Scheme string
	Incast workloads.IncastResult
	MC     workloads.MemcachedClusterResult
}

// Cluster is the multi-machine figure this repo adds beyond the paper: the
// paper evaluates one machine against a traffic generator, but IOMMU
// protection is paid at *both* ends of a datacenter RPC. Two topologies run
// per scheme on the sharded conservative engine (internal/topo):
// an incast storm — four senders blasting one receiver through a router
// whose output port tail-drops — and a memcached cluster — two client
// machines issuing closed-loop GET/SETs through a load-balancing router to
// two servers. The figure reports receiver goodput, exact p99 latency and
// drop rate under incast, and completed-request throughput and p99 request
// latency for memcached. Each scheme is one runner job, so -parallel spreads
// the schemes over host workers; the rows are byte-identical at any count.
func Cluster(opts Options) ([]ClusterRow, error) {
	warm, dur := 3*sim.Millisecond, 10*sim.Millisecond
	if opts.Quick {
		warm, dur = 2*sim.Millisecond, 4*sim.Millisecond
	}
	return runJobs(opts, len(testbed.AllSchemes), func(i int, opts Options) (ClusterRow, error) {
		scheme := testbed.AllSchemes[i]
		// The -stats contract gives every figure per-machine snapshots; a
		// topology has many, so emit the interesting endpoint of each
		// scenario (the incast receiver, the first memcached server).
		ic, err := workloads.RunIncast(workloads.IncastConfig{
			Scheme: scheme, Senders: 4,
			Seed: opts.Seed + 1, Duration: dur, Warmup: warm,
			Inspect: func(ms []*testbed.Machine) error {
				opts.emit(fmt.Sprintf("cluster-incast/%s", scheme), ms[0])
				return nil
			},
		})
		if err != nil {
			return ClusterRow{}, fmt.Errorf("cluster incast %s: %w", scheme, err)
		}
		mc, err := workloads.RunMemcachedCluster(workloads.MemcachedClusterConfig{
			Scheme: scheme, Clients: 2, Servers: 2,
			Seed: opts.Seed + 2, Duration: dur, Warmup: warm,
			Inspect: func(ms []*testbed.Machine) error {
				opts.emit(fmt.Sprintf("cluster-mc/%s", scheme), ms[0])
				return nil
			},
		})
		if err != nil {
			return ClusterRow{}, fmt.Errorf("cluster memcached %s: %w", scheme, err)
		}
		return ClusterRow{Scheme: string(scheme), Incast: ic, MC: mc}, nil
	})
}

// RenderCluster renders the figure.
func RenderCluster(rows []ClusterRow) string {
	header := []string{"scheme", "incast Gb/s", "incast p99 µs", "drop", "mc kops/s", "mc p99 µs"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme,
			f1(r.Incast.Gbps),
			f1(float64(r.Incast.P99) / float64(sim.Microsecond)),
			pct(r.Incast.DropFrac),
			f1(r.MC.KOps),
			f1(float64(r.MC.P99) / float64(sim.Microsecond)),
		})
	}
	return "Cluster: 4-sender incast + distributed memcached on multi-machine topologies\n" +
		RenderTable(header, cells)
}
