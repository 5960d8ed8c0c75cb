package workloads

import (
	"testing"

	"github.com/asplos18/damn/internal/testbed"
)

// TestRecoveryStormHeals is the acceptance scenario: a DMA-fault storm must
// quarantine the NIC, and the supervisor must bring it back to Healthy with
// allocator conservation intact and recovered throughput within 5% of the
// pre-fault steady state.
func TestRecoveryStormHeals(t *testing.T) {
	for _, scheme := range []testbed.Scheme{testbed.SchemeDeferred, testbed.SchemeDAMN} {
		t.Run(string(scheme), func(t *testing.T) {
			ma := faultMachine(t, scheme, 4, 7, nil)
			defer ma.Close()
			res, err := RunRecovery(RecoveryConfig{Machine: ma})
			if err != nil {
				t.Fatalf("RunRecovery: %v", err)
			}
			if res.Storms == 0 || res.Quarantines == 0 {
				t.Fatalf("storm did not trigger quarantine: %+v", res)
			}
			if res.FinalState != "healthy" {
				t.Fatalf("device did not recover: final state %s", res.FinalState)
			}
			if res.MTTRPS <= 0 || res.DetectPS <= 0 {
				t.Errorf("missing latency measurements: detect=%v mttr=%v", res.DetectPS, res.MTTRPS)
			}
			if res.StormGbps >= res.SteadyGbps {
				t.Errorf("storm did not dent throughput: steady=%.2f storm=%.2f", res.SteadyGbps, res.StormGbps)
			}
			if res.RecoveredGbps < 0.95*res.SteadyGbps {
				t.Errorf("recovered throughput %.2f Gbps below 95%% of steady %.2f Gbps",
					res.RecoveredGbps, res.SteadyGbps)
			}
			if res.FaultRecords == 0 {
				t.Errorf("no per-device fault records attributed to the NIC")
			}
			if scheme == testbed.SchemeDAMN && res.ReleasedPages == 0 {
				t.Errorf("reset reclaimed no DAMN pages")
			}
		})
	}
}

// TestRecoveryDeterminism: the whole trajectory — dip, detection, reset,
// recovery — must be a pure function of (scheme, seed).
func TestRecoveryDeterminism(t *testing.T) {
	run := func() RecoveryResult {
		ma := faultMachine(t, testbed.SchemeDAMN, 4, 11, nil)
		defer ma.Close()
		res, err := RunRecovery(RecoveryConfig{Machine: ma})
		if err != nil {
			t.Fatalf("RunRecovery: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("recovery run not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}
