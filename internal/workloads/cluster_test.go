package workloads

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/topo"
)

func quickRing() ringConfig {
	return ringConfig{
		Scheme: testbed.SchemeDAMN, Machines: 3,
		Seed: 42, Duration: 3 * sim.Millisecond, Warmup: 1 * sim.Millisecond,
	}
}

// TestTopologyReplay runs each topology workload twice with one config:
// the ring (down to each shard's engine event count), the ring with link
// impairments firing on every machine (down to each machine's fault
// schedule digest), the router-and-incast shape of the cluster figure and
// the request/response memcached cluster. The two runs must be identical,
// and each case checks that its run did some work.
func TestTopologyReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run executes the workload once and fails the test if it errs or
		// does nothing.
		run func(t *testing.T) any
	}{
		{"ring", func(t *testing.T) any {
			res, err := runRing(quickRing())
			if err != nil {
				t.Fatal(err)
			}
			if res.Segments == 0 {
				t.Fatal("ring moved no traffic")
			}
			return res
		}},
		{"chaos-ring", func(t *testing.T) any {
			cfg := quickRing()
			cfg.Faults = &faults.Config{Seed: 17, Rates: faults.UniformRates(0.005)}
			res, err := runRing(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Injected == 0 {
				t.Fatal("no faults fired at rate 0.005")
			}
			if len(res.FaultDigests) != 3 {
				t.Fatalf("expected 3 per-machine digests, got %v", res.FaultDigests)
			}
			return res
		}},
		{"incast", func(t *testing.T) any {
			res, err := RunIncast(IncastConfig{
				Scheme: testbed.SchemeDAMN, Senders: 3,
				Seed: 7, Duration: 3 * sim.Millisecond, Warmup: 1 * sim.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered == 0 {
				t.Fatal("incast delivered nothing")
			}
			return res
		}},
		{"memcached-cluster", func(t *testing.T) any {
			res, err := RunMemcachedCluster(MemcachedClusterConfig{
				Scheme: testbed.SchemeDAMN, Clients: 2, Servers: 2,
				Seed: 11, Duration: 3 * sim.Millisecond, Warmup: 1 * sim.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("memcached cluster completed no requests")
			}
			return res
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, again := tc.run(t), tc.run(t)
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("same config diverged:\nfirst: %+v\nagain: %+v", first, again)
			}
		})
	}
}

// TestRingZeroRateFaultsMatchBaseline extends the zero-rate-equals-baseline
// contract to topologies: arming every machine's fault plane with all rates
// zero must not change a single workload number, because a zero-rate
// injector never draws on the link impairment path (now owned by
// device.Link, exercised by both local injection and cross-machine
// forwarding). Processed counts are excluded — an armed plane runs a
// watchdog ticker, which adds events without touching traffic.
func TestRingZeroRateFaultsMatchBaseline(t *testing.T) {
	base, err := runRing(quickRing())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickRing()
	cfg.Faults = &faults.Config{Seed: 99, Rates: faults.UniformRates(0)}
	armed, err := runRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.Injected != 0 {
		t.Fatalf("zero-rate plane fired %d faults", armed.Injected)
	}
	if !reflect.DeepEqual(base.PerMachineGbps, armed.PerMachineGbps) ||
		base.TotalGbps != armed.TotalGbps || base.Segments != armed.Segments ||
		base.Epochs != armed.Epochs {
		t.Fatalf("zero-rate fault plane perturbed the ring:\nbase:  %+v\narmed: %+v", base, armed)
	}
}

// TestIncastDamnAuditAcrossMachines drives the incast storm with DAMN on
// every machine, then audits each machine's allocator through the Inspect
// hook (which runs before teardown): cross-machine forwarding must not
// leak or double-free DAMN chunks on either side of the wire.
func TestIncastDamnAuditAcrossMachines(t *testing.T) {
	res, err := RunIncast(IncastConfig{
		Scheme: testbed.SchemeDAMN, Senders: 2,
		Seed: 3, Duration: 2 * sim.Millisecond, Warmup: 1 * sim.Millisecond,
		Inspect: func(machines []*testbed.Machine) error {
			for _, ma := range machines {
				if ma.Damn == nil {
					continue
				}
				if _, err := ma.Damn.Audit(); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("incast delivered nothing")
	}
}

// ---------------------------------------------------------------------------
// Ring: N machines, each streaming to its successor — the balanced
// topology behind the replay tests.
// ---------------------------------------------------------------------------

// ringConfig describes an N-machine ring where machine i streams one flow
// to machine (i+1) mod N over a direct link. Load is symmetric, so every
// shard has equal work, and every machine plays both endpoint roles at
// once — the cleanest replay probe.
type ringConfig struct {
	Scheme   testbed.Scheme
	Machines int
	Seed     int64
	Duration sim.Time
	Warmup   sim.Time
	// Faults, when non-nil, arms every machine's fault-injection plane —
	// link impairments then fire at each machine's ingress links,
	// including the cross-machine forwarded path. Each machine draws from
	// its own per-kind streams, so the combined schedule replays exactly.
	Faults *faults.Config
}

// ringResult summarises a ring run. Two runs of the same config are
// comparable field-by-field: any divergence between them is a determinism
// bug.
type ringResult struct {
	Scheme         string
	PerMachineGbps []float64
	TotalGbps      float64
	Segments       uint64
	Epochs         uint64
	// Processed is each shard's engine event count — the strictest cheap
	// identity probe (every event execution shows up here).
	Processed []uint64
	// FaultDigests is each machine's fault-schedule digest (nil when the
	// ring runs fault-free): a replay/divergence probe for the fault plane
	// across shards.
	FaultDigests []uint64
	// Injected is the total injected faults across machines.
	Injected uint64
}

// ringCores is the core count of every ring machine: core 0 runs the
// sender pump and core 1 receives.
const ringCores int = 2

// runRing executes the ring and reports per-machine receive goodput.
func runRing(cfg ringConfig) (ringResult, error) {
	if cfg.Machines <= 1 {
		cfg.Machines = 3
	}
	if cfg.Duration == 0 {
		cfg.Duration = 5 * sim.Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 1 * sim.Millisecond
	}

	tp := topo.New(ClusterLinkLatency)
	defer tp.Close()

	var nodes []*topo.Node
	for i := 0; i < cfg.Machines; i++ {
		mcfg := clusterMachineCfg(cfg.Scheme, cfg.Seed*1000+int64(i), ringCores)
		if cfg.Faults != nil {
			f := *cfg.Faults
			f.Seed ^= int64(i) * 0x9E3779B9 // distinct per-machine schedules
			mcfg.Faults = &f
		}
		node, err := tp.AddMachine(mcfg)
		if err != nil {
			return ringResult{}, err
		}
		nodes = append(nodes, node)
	}

	receivers := make([]*netstack.Receiver, cfg.Machines)
	var senders []*netstack.Sender
	for i, node := range nodes {
		next := nodes[(i+1)%cfg.Machines]
		if err := tp.ConnectMachines(node, 0, next, 0, ClusterLinkLatency); err != nil {
			return ringResult{}, err
		}
		hash := netstack.RSSHashIPv4(clusterAddr(i), clusterAddr((i+1)%cfg.Machines), uint16(10000+i), 5001)
		// Steer the inbound flow to the successor's core 1: core 0 runs its
		// sender pump, so without the rule RSS luck decides which machines
		// suffer send/receive contention and the ring load is lopsided.
		if err := next.M.NIC.SteerFlow(hash, 1); err != nil {
			return ringResult{}, err
		}
		senders = append(senders, &netstack.Sender{
			K: node.M.Kernel, Drv: node.M.Driver, Core: node.M.Cores[0],
			Ring: 0, PortID: 0, Flow: 200 + i, Hash: hash,
		})
		receivers[i] = &netstack.Receiver{K: node.M.Kernel}
		recv := receivers[i]
		node.M.Driver.OnDeliver = func(t *sim.Task, ring int, skb *netstack.SKBuff) {
			recv.HandleSegment(t, skb)
		}
	}
	for _, n := range nodes {
		if err := n.M.FillAllRings(); err != nil {
			return ringResult{}, err
		}
	}
	for _, s := range senders {
		s.Start()
	}

	tp.Run(cfg.Warmup)
	rx0 := make([]uint64, cfg.Machines)
	for i, r := range receivers {
		rx0[i] = r.Bytes
	}
	t0 := tp.Cluster().Now()
	tp.Run(t0 + cfg.Duration)
	dt := (tp.Cluster().Now() - t0).Seconds()

	res := ringResult{Scheme: string(cfg.Scheme), Epochs: tp.Cluster().Epochs()}
	for i, r := range receivers {
		g := float64(r.Bytes-rx0[i]) * 8 / dt / 1e9
		res.PerMachineGbps = append(res.PerMachineGbps, g)
		res.TotalGbps += g
		res.Segments += r.Segments
	}
	for _, s := range tp.Cluster().Shards() {
		res.Processed = append(res.Processed, s.Engine().Processed())
	}
	for _, n := range nodes {
		if n.M.Faults != nil {
			res.FaultDigests = append(res.FaultDigests, n.M.Faults.ScheduleDigest())
			res.Injected += n.M.Faults.InjectedTotal()
		}
	}
	return res, nil
}
