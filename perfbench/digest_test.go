package main

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/workloads"
)

// shuffledSnapshot rebuilds a snapshot inserting every key in a random
// order, so its maps are laid out differently from the original's.
func shuffledSnapshot(s stats.Snapshot, rng *rand.Rand) stats.Snapshot {
	out := stats.Snapshot{
		Counters:   map[string]uint64{},
		Floats:     map[string]float64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]stats.HistogramSnapshot{},
	}
	keys := slices.Sorted(maps.Keys(s.Counters))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		out.Counters[k] = s.Counters[k]
	}
	keys = slices.Sorted(maps.Keys(s.Floats))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		out.Floats[k] = s.Floats[k]
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	return out
}

func TestDigestIgnoresMapOrder(t *testing.T) {
	res := workloads.NetperfResult{Scheme: "damn", RXGbps: 65.4, TotalGbps: 65.4, CPUUtil: 0.0357}
	base := fixedSnapshot()
	want, err := digestOf(res, []stats.Snapshot{base, base})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		got, err := digestOf(res, []stats.Snapshot{shuffledSnapshot(base, rng), shuffledSnapshot(base, rng)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shuffle %d: digest %s, want %s", i, got, want)
		}
	}
}

func TestDigestSeesEveryValue(t *testing.T) {
	res := workloads.NetperfResult{Scheme: "damn", TotalGbps: 65.4}
	base := fixedSnapshot()
	ref, err := digestOf(res, []stats.Snapshot{base})
	if err != nil {
		t.Fatal(err)
	}
	changed := shuffledSnapshot(base, rand.New(rand.NewSource(1)))
	changed.Counters["iommu/iotlb_misses"]++
	res2 := res
	res2.TotalGbps = math.Nextafter(res.TotalGbps, 100)
	for name, c := range map[string]struct {
		res   any
		snaps []stats.Snapshot
	}{
		"counter":  {res, []stats.Snapshot{changed}},
		"result":   {res2, []stats.Snapshot{base}},
		"machines": {res, []stats.Snapshot{base, base}},
	} {
		got, err := digestOf(c.res, c.snaps)
		if err != nil {
			t.Fatal(err)
		}
		if got == ref {
			t.Errorf("%s change left the digest at %s", name, got)
		}
	}
}

func TestCounterProblems(t *testing.T) {
	s := stats.Snapshot{Counters: map[string]uint64{
		"iommu/blocked_dmas":       0,
		"netstack/rx_wrong_core":   2,
		"netstack/tx_unmap_errors": 1,
		"device/nic_dma_faults":    0,
		"netstack/rx_dropped":      9, // allowed: flow control, not a fault
	}}
	got := counterProblems(3, s)
	want := []string{
		"machine 3: netstack/rx_wrong_core = 2, want 0",
		"machine 3: netstack/tx_unmap_errors = 1, want 0",
	}
	if len(got) != len(want) {
		t.Fatalf("problems %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("problem %d = %q, want %q", i, got[i], want[i])
		}
	}
}
