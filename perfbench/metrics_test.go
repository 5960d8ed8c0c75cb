package main

import (
	"math"
	"testing"
	"time"

	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// fixedSnapshot is one machine's registry after a run, written out by hand.
func fixedSnapshot() stats.Snapshot {
	return stats.Snapshot{
		Counters: map[string]uint64{
			"device/nic_rx_segments":    300,
			"device/nic_tx_segments":    100,
			"device/nic_rx_bytes":       3_000_000,
			"device/nic_tx_bytes":       1_000_000,
			"sim/events_processed":      2000,
			"sim/tasks":                 40,
			"sim/irq_tasks":             360,
			"iommu/translations":        1600,
			"iommu/iotlb_hits":          1200,
			"iommu/iotlb_misses":        400,
			"iommu/iotlb_invalidations": 80,
			"dmaapi/maps_interposed":    350,
			"dmaapi/maps_deferred":      50,
			"damn/magazine_hits":        90,
			"damn/depot_hits":           6,
			"damn/chunk_builds":         4,
			"netstack/rx_dropped":       3,
			"device/nic_rx_stalls":      7,
		},
		Floats: map[string]float64{
			"perf/cycles_dma_map":     4e6,
			"perf/cycles_dma_unmap":   4e6,
			"perf/cycles_damn_alloc":  1e6,
			"perf/cycles_damn_free":   2e6,
			"perf/cycles_dma_ignored": 9e9,
		},
		Histograms: map[string]stats.HistogramSnapshot{
			// 30 GET/SET headers of 256 B and 80 64 KiB value segments.
			"device/nic_rx_segment_bytes": {Count: 110, Buckets: []stats.HistogramBucket{
				{Le: 512, Count: 30}, {Le: 131072, Count: 80},
			}},
		},
	}
}

func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestPerLayerFromFixedSnapshot(t *testing.T) {
	it := iteration{
		jobs: []job{{name: "damn", scheme: testbed.SchemeDAMN, setShare: memcachedSetShare}},
		runs: []*jobRun{{job: "damn", snaps: []stats.Snapshot{fixedSnapshot()}, zeroed: 5_000_000}},
	}
	ms := perLayer(it)
	want := map[string]float64{
		"sim.events_per_seg":            5,   // 2000 / 400
		"sim.tasks_per_seg":             1,   // 400 / 400
		"iommu.translations_per_seg":    4,   // 1600 / 400
		"iommu.iotlb_miss_pct":          25,  // 400 / 1600
		"iommu.invalidations_per_mb":    20,  // 80 / 4 MB
		"dmaapi.maps_per_seg":           1,   // 400 / 400
		"damn.magazine_hit_pct":         90,  // 90 / 100
		"damn.chunk_builds":             4,   //
		"netstack.rx_dropped":           3,   //
		"device.rx_stalls":              7,   //
		"perf.dma_cycles_per_mb":        2e6, // 8e6 / 4 MB
		"perf.damn_cycles_per_mb":       7.5e5,
		"mem.zeroed_mb":                 5,
		"topo.epochs":                   0,
		"topo.events_per_epoch":         0,
		"workloads.set_share.damn":      100.0 * 10 / 30, // 80/8 SETs of 30 requests
		"workloads.set_share.iommu-off": 0,
		"workloads.set_share.strict":    0,
		"workloads.set_share.deferred":  0,
		"workloads.set_share.shadow":    0,
	}
	for name, w := range want {
		m, ok := ms[name]
		if w < 0 {
			if ok {
				t.Errorf("%s reported, want absent", name)
			}
			continue
		}
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		near(t, name, m.Value, w)
	}
}

func TestTopologyCountsPerShardEpoch(t *testing.T) {
	snap := stats.Snapshot{Counters: map[string]uint64{"sim/events_processed": 600}}
	it := iteration{
		jobs: []job{{name: "incast/damn", scheme: testbed.SchemeDAMN}, {name: "damn", scheme: testbed.SchemeDAMN}},
		runs: []*jobRun{
			{snaps: []stats.Snapshot{snap, snap, snap}, epochs: 100},
			{snaps: []stats.Snapshot{snap}}, // a single-machine job adds no epochs
		},
	}
	ms := perLayer(it)
	near(t, "topo.epochs", ms["topo.epochs"].Value, 100)
	near(t, "topo.events_per_epoch", ms["topo.events_per_epoch"].Value, 6) // 1800 / (3 × 100)
}

func TestEndToEndFromFixedRuns(t *testing.T) {
	snap := fixedSnapshot()
	it := iteration{
		jobs: []job{
			{name: "iommu-off", scheme: testbed.SchemeOff, headline: true},
			{name: "damn", scheme: testbed.SchemeDAMN, headline: true},
			{name: "rpc/damn", scheme: testbed.SchemeDAMN}, // not a headline job
		},
		runs: []*jobRun{
			{setup: 100 * time.Millisecond, run: time.Second, snaps: []stats.Snapshot{snap}, gbps: 80},
			{setup: 300 * time.Millisecond, run: time.Second, snaps: []stats.Snapshot{snap}, gbps: 60, cpuUsPerMB: 150},
			{problems: []string{"broken"}, gbps: 1},
		},
		wall:    3 * time.Second,
		peakRSS: 512e6,
	}
	ms := endToEnd(it)
	want := map[string]float64{
		"wall_s":             3,
		"setup_s":            0.4,
		"sim_seg_per_s":      400, // 800 segments over 2 s
		"peak_rss_mb":        512,
		"damn_gbps":          60,
		"damn_vs_off_pct":    75,
		"damn_cpu_us_per_mb": 150,
		"jobs_ok_pct":        100.0 * 2 / 3,
	}
	if len(ms) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(ms), len(want), ms)
	}
	for name, w := range want {
		near(t, name, ms[name].Value, w)
	}
}

func TestMedianMetrics(t *testing.T) {
	its := []iteration{{wall: 3 * time.Second}, {wall: time.Second}, {wall: 2 * time.Second}, {wall: 10 * time.Second}}
	ms := medianMetrics(its, func(it iteration) map[string]metric {
		return map[string]metric{"wall_s": {it.wall.Seconds(), "s"}}
	})
	near(t, "median wall_s", ms["wall_s"].Value, 2.5)
	if ms["wall_s"].Unit != "s" {
		t.Errorf("unit %q, want s", ms["wall_s"].Unit)
	}
}

func TestClusterSetShare(t *testing.T) {
	server := stats.Snapshot{Histograms: map[string]stats.HistogramSnapshot{
		"device/nic_rx_segment_bytes": {Buckets: []stats.HistogramBucket{{Le: 512, Count: 6}, {Le: 32768, Count: 4}}},
	}}
	client := stats.Snapshot{Histograms: map[string]stats.HistogramSnapshot{
		"device/nic_rx_segment_bytes": {Buckets: []stats.HistogramBucket{{Le: 32768, Count: 99}}},
	}}
	sets, requests := clusterSetShare([]stats.Snapshot{server, server, client, client})
	near(t, "sets", sets, 8)
	near(t, "requests", requests, 20)
}
