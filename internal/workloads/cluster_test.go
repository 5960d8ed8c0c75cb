package workloads

import (
	"reflect"
	"testing"

	"github.com/asplos18/damn/internal/faults"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
)

func quickRing() RingConfig {
	return RingConfig{
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
			res, err := RunRing(quickRing())
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
			res, err := RunRing(cfg)
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
	base, err := RunRing(quickRing())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickRing()
	cfg.Faults = &faults.Config{Seed: 99, Rates: faults.UniformRates(0)}
	armed, err := RunRing(cfg)
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
