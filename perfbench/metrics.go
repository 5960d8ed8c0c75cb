package main

import (
	"strings"

	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
)

// reportedLayers are the layers whose self time the traced run reports:
// the repository's internal packages the workloads exercise, the
// benchmark's own code ("bench") and samples with no repository frame.
var reportedLayers = []string{
	"sim", "topo", "netstack", "mem", "testbed", "iommu", "dmaapi", "iova",
	"damn", "device", "stats", "perf", "workloads", "faults", "bench", "runtime",
}

// endToEnd computes the end-to-end metrics of one iteration.
func endToEnd(it iteration) map[string]metric {
	var setup, run float64
	var segs uint64
	for _, r := range it.runs {
		setup += r.setup.Seconds()
		run += r.run.Seconds()
		for _, s := range r.snaps {
			segs += s.Counter("device/nic_rx_segments") + s.Counter("device/nic_tx_segments")
		}
	}
	ms := map[string]metric{
		"wall_s":      {it.wall.Seconds(), "s"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {float64(it.peakRSS) / 1e6, "MB"},
	}
	if run > 0 {
		ms["sim_seg_per_s"] = metric{float64(segs) / run, "segments/s"}
	}
	var damn, off *jobRun
	for i, r := range it.runs {
		if !it.jobs[i].headline {
			continue
		}
		switch it.jobs[i].scheme {
		case testbed.SchemeDAMN:
			damn = r
		case testbed.SchemeOff:
			off = r
		}
	}
	if damn != nil {
		ms["damn_gbps"] = metric{damn.gbps, "Gb/s"}
		ms["damn_cpu_us_per_mb"] = metric{damn.cpuUsPerMB, "us/MB"}
		if off != nil && off.gbps > 0 {
			ms["damn_vs_off_pct"] = metric{damn.gbps / off.gbps * 100, "%"}
		}
	}
	failed := 0
	for _, r := range it.runs {
		if len(r.problems) > 0 {
			failed++
		}
	}
	ms["jobs_ok_pct"] = metric{float64(len(it.runs)-failed) / float64(len(it.runs)) * 100, "%"}
	return ms
}

// runtimeMetrics are the Go runtime's allocation and GC figures for one
// iteration.
func runtimeMetrics(it iteration) map[string]metric {
	return map[string]metric{
		"runtime.alloc_mb":    {float64(it.mem.TotalAlloc) / 1e6, "MB"},
		"runtime.mallocs":     {float64(it.mem.Mallocs), "count"},
		"runtime.gc_cycles":   {float64(it.mem.NumGC), "count"},
		"runtime.gc_pause_ms": {float64(it.mem.PauseTotalNs) / 1e6, "ms"},
	}
}

// layerCounts are the stats-registry sums one iteration's per-layer metrics
// are computed from.
type layerCounts struct {
	segs, bytes                 float64 // NIC RX+TX segments and bytes
	events, tasks               float64
	translations                float64
	iotlbHits, iotlbMisses      float64
	invalidations               float64
	maps                        float64
	magHits, depotHits, builds  float64
	rxDropped, rxStalls         float64
	dmaCycles                   float64
	damnCycles, damnBytes       float64 // DAMN jobs only
	zeroed                      float64
	epochs, topoEvents, shardEp float64
}

func (c *layerCounts) add(r *jobRun, scheme testbed.Scheme) {
	var jobBytes, jobDamn float64
	for _, s := range r.snaps {
		c.segs += cnt(s, "device/nic_rx_segments") + cnt(s, "device/nic_tx_segments")
		b := cnt(s, "device/nic_rx_bytes") + cnt(s, "device/nic_tx_bytes")
		c.bytes += b
		jobBytes += b
		c.events += cnt(s, "sim/events_processed")
		c.tasks += cnt(s, "sim/tasks") + cnt(s, "sim/irq_tasks")
		c.translations += cnt(s, "iommu/translations")
		c.iotlbHits += cnt(s, "iommu/iotlb_hits")
		c.iotlbMisses += cnt(s, "iommu/iotlb_misses")
		c.invalidations += cnt(s, "iommu/iotlb_invalidations")
		c.magHits += cnt(s, "damn/magazine_hits")
		c.depotHits += cnt(s, "damn/depot_hits")
		c.builds += cnt(s, "damn/chunk_builds")
		c.rxDropped += cnt(s, "netstack/rx_dropped")
		c.rxStalls += cnt(s, "device/nic_rx_stalls")
		for k, v := range s.Counters {
			if strings.HasPrefix(k, "dmaapi/maps_") {
				c.maps += float64(v)
			}
		}
		for k, v := range s.Floats {
			switch {
			case k == "perf/cycles_dma_map" || k == "perf/cycles_dma_unmap":
				c.dmaCycles += v
			case strings.HasPrefix(k, "perf/cycles_damn_"):
				jobDamn += v
			}
		}
		if r.epochs > 0 {
			c.topoEvents += cnt(s, "sim/events_processed")
		}
	}
	if scheme == testbed.SchemeDAMN {
		c.damnCycles += jobDamn
		c.damnBytes += jobBytes
	}
	c.zeroed += float64(r.zeroed)
	if r.epochs > 0 {
		c.epochs += float64(r.epochs)
		c.shardEp += float64(r.epochs) * float64(len(r.snaps))
	}
}

func cnt(s stats.Snapshot, key string) float64 { return float64(s.Counters[key]) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the stats-registry metrics of one iteration, summed
// over its jobs. Simulated results repeat exactly for a seed, so any
// iteration gives the same values.
func perLayer(it iteration) map[string]metric {
	var c layerCounts
	topoRuns := 0.0
	for i, r := range it.runs {
		c.add(r, it.jobs[i].scheme)
		if r.epochs > 0 {
			topoRuns++
		}
	}
	mb := c.bytes / 1e6
	ms := map[string]metric{
		"sim.events_per_seg":         {ratio(c.events, c.segs), "events/segment"},
		"sim.tasks_per_seg":          {ratio(c.tasks, c.segs), "tasks/segment"},
		"topo.epochs":                {ratio(c.epochs, topoRuns), "epochs/topology"},
		"topo.events_per_epoch":      {ratio(c.topoEvents, c.shardEp), "ev/shard-epoch"},
		"netstack.rx_dropped":        {c.rxDropped, "count"},
		"mem.zeroed_mb":              {c.zeroed / 1e6, "MB"},
		"iommu.translations_per_seg": {ratio(c.translations, c.segs), "count/segment"},
		"iommu.iotlb_miss_pct":       {ratio(c.iotlbMisses, c.iotlbHits+c.iotlbMisses) * 100, "%"},
		"iommu.invalidations_per_mb": {ratio(c.invalidations, mb), "count/MB"},
		"dmaapi.maps_per_seg":        {ratio(c.maps, c.segs), "maps/segment"},
		"damn.magazine_hit_pct":      {ratio(c.magHits, c.magHits+c.depotHits+c.builds) * 100, "%"},
		"damn.chunk_builds":          {c.builds, "count"},
		"device.rx_stalls":           {c.rxStalls, "count"},
		"perf.dma_cycles_per_mb":     {ratio(c.dmaCycles, mb), "cycles/MB"},
		"perf.damn_cycles_per_mb":    {ratio(c.damnCycles, c.damnBytes/1e6), "cycles/MB"},
	}
	sets, requests := map[testbed.Scheme]float64{}, map[testbed.Scheme]float64{}
	for i, r := range it.runs {
		if f := it.jobs[i].setShare; f != nil {
			s, q := f(r.snaps)
			sets[it.jobs[i].scheme] += s
			requests[it.jobs[i].scheme] += q
		}
	}
	for _, scheme := range testbed.AllSchemes {
		ms["workloads.set_share."+string(scheme)] = metric{ratio(sets[scheme], requests[scheme]) * 100, "%"}
	}
	return ms
}
