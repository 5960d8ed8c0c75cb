package main

import (
	"sort"

	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// workload is one traffic mix: a list of jobs, one per scheme (two per
// scheme for the cluster mix), all derived from the run's seed.
type workload struct {
	name string
	// topo marks mixes whose jobs each run a multi-machine topology on
	// sim.Cluster; those jobs run one at a time, each with its own
	// topology workers, instead of fanning out over job workers.
	topo bool
	jobs func(p params) []job
}

// params are the inputs a run hands its jobs.
type params struct {
	seed        int64
	topoWorkers int
}

// Simulated windows. The single-machine mixes use the figures' full-fidelity
// windows (internal/experiments: 25 ms warm-up, 100 ms measured); the
// cluster mix uses the cluster figure's (3 ms + 10 ms).
const (
	machineWarmup = 25 * sim.Millisecond
	machineWindow = 100 * sim.Millisecond
	clusterWarmup = 3 * sim.Millisecond
	clusterWindow = 10 * sim.Millisecond
)

// Per-segment calibration cycles of the figures these mixes reproduce; the
// values mirror the unexported constants of internal/experiments.
const (
	extraSingleCore = 0     // Fig 4: four instances on core 0
	extraBidir      = 44000 // Fig 1/6: 28 RX + 28 TX instances
)

// warmupJitter is the seed's input to every mix: it lengthens the warm-up
// by 0–0.99% of the measured window in 100 steps, so each seed measures a
// different stretch of the same traffic while the simulated span, and with
// it the host work, changes by under 1%. Every engine is seeded from the
// seed as well.
func warmupJitter(seed int64, window sim.Time) sim.Time {
	return sim.Time(splitmix64(uint64(seed))%100) * (window / 10000)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

var allWorkloads = []workload{
	{name: "netperf-rx-1core", jobs: rx1CoreJobs},
	{name: "netperf-bidir-28core", jobs: bidirJobs},
	{name: "memcached-28core", jobs: memcachedJobs},
	{name: "cluster-incast-rpc", topo: true, jobs: clusterJobs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func machineCfg(scheme testbed.Scheme, seed int64, memBytes int64) testbed.MachineConfig {
	return testbed.MachineConfig{
		Scheme: scheme, Model: perf.Default28Core(), MemBytes: memBytes,
		Seed: seed, RingSize: 32,
	}
}

func repCores(core, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = core
	}
	return out
}

func seqCores(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// netperfGoodput turns a netperf row into the job's headline numbers:
// RX+TX goodput and simulated CPU µs per MB delivered.
func netperfGoodput(res workloads.NetperfResult, cores int) (float64, float64) {
	return res.TotalGbps, cpuUsPerMB(res.CPUUtil, cores, res.TotalGbps)
}

// cpuUsPerMB converts whole-machine utilisation into CPU µs per MB
// delivered: util × cores is CPU seconds per second, Gb/s × 125 is MB per
// second.
func cpuUsPerMB(util float64, cores int, gbps float64) float64 {
	if gbps <= 0 {
		return 0
	}
	return util * float64(cores) * 1e6 / (gbps * 125)
}

// rx1CoreJobs is the Fig 4a / bypass-figure setup: four netperf receivers on
// core 0 of a 512 MiB machine under each kernel scheme, then both bypass
// flavours under the polling driver.
func rx1CoreJobs(p params) []job {
	warm := machineWarmup + warmupJitter(p.seed, machineWindow)
	var jobs []job
	for _, scheme := range testbed.AllSchemes {
		jobs = append(jobs, machineJob(scheme, machineCfg(scheme, p.seed, 512<<20), func(ma *testbed.Machine) (any, float64, float64, error) {
			res, err := workloads.RunNetperf(workloads.NetperfConfig{
				Machine: ma, Warmup: warm, Duration: machineWindow,
				RXCores: repCores(0, 4), ExtraCycles: extraSingleCore,
			})
			gbps, us := netperfGoodput(res, len(ma.Cores))
			return res, gbps, us, err
		}))
	}
	for _, scheme := range testbed.BypassSchemes {
		jobs = append(jobs, machineJob(scheme, machineCfg(scheme, p.seed, 512<<20), func(ma *testbed.Machine) (any, float64, float64, error) {
			res, err := workloads.RunBypass(workloads.BypassConfig{
				Machine: ma, Rings: 1, Warmup: warm, Duration: machineWindow,
			})
			return res, res.RXGbps, res.CPUPerMBus, err
		}))
	}
	return jobs
}

// bidirJobs is the Fig 1/6 setup: 28 RX and 28 TX netperf instances, one of
// each per core, on 1 GiB machines.
func bidirJobs(p params) []job {
	warm := machineWarmup + warmupJitter(p.seed, machineWindow)
	var jobs []job
	for _, scheme := range testbed.AllSchemes {
		jobs = append(jobs, machineJob(scheme, machineCfg(scheme, p.seed, 1<<30), func(ma *testbed.Machine) (any, float64, float64, error) {
			res, err := workloads.RunNetperf(workloads.NetperfConfig{
				Machine: ma, Warmup: warm, Duration: machineWindow,
				RXCores: seqCores(len(ma.Cores)), TXCores: seqCores(len(ma.Cores)),
				ExtraCycles: extraBidir, Wakeup: true,
			})
			gbps, us := netperfGoodput(res, len(ma.Cores))
			return res, gbps, us, err
		}))
	}
	return jobs
}

// memcachedValueBytes is Fig 7's value size (RunMemcached's default).
const memcachedValueBytes = 512 << 10

// memcachedJobs is the Fig 7 setup: 28 closed-loop memcached instances with
// 512 KiB values on 1 GiB machines. Goodput is ops × value bytes.
func memcachedJobs(p params) []job {
	warm := machineWarmup + warmupJitter(p.seed, machineWindow)
	var jobs []job
	for _, scheme := range testbed.AllSchemes {
		j := machineJob(scheme, machineCfg(scheme, p.seed, 1<<30), func(ma *testbed.Machine) (any, float64, float64, error) {
			res, err := workloads.RunMemcached(workloads.MemcachedConfig{
				Machine: ma, Warmup: warm, Duration: machineWindow, ValueBytes: memcachedValueBytes,
			})
			gbps := res.TPS * memcachedValueBytes * 8 / 1e9
			return res, gbps, cpuUsPerMB(res.CPUUtil, len(ma.Cores), gbps), err
		})
		j.setShare = memcachedSetShare
		jobs = append(jobs, j)
	}
	return jobs
}

// memcachedSetShare counts requests the server received. A GET is one
// 256 B segment; a SET is the same 256 B header segment behind 64 KiB value
// segments, so requests are the sub-segment-size arrivals and SETs the
// full segments divided by the segments per value.
func memcachedSetShare(snaps []stats.Snapshot) (sets, requests float64) {
	seg := float64(perf.Default28Core().SegmentSize)
	perValue := float64((memcachedValueBytes + int(seg) - 1) / int(seg))
	for _, s := range snaps {
		small, big := splitHistogram(s.Histograms["device/nic_rx_segment_bytes"], seg)
		requests += small
		sets += big / perValue
	}
	return sets, requests
}

// clusterJobs is the cluster figure: per kernel scheme, a 4→1 incast through
// a tail-dropping router, then 2 memcached clients → load-balancing router →
// 2 servers.
func clusterJobs(p params) []job {
	warm := clusterWarmup + warmupJitter(p.seed, clusterWindow)
	var jobs []job
	for _, scheme := range testbed.AllSchemes {
		jobs = append(jobs, topologyJob("incast/"+string(scheme), scheme, true,
			func(warm, dur sim.Time, inspect func([]*testbed.Machine) error) (any, float64, error) {
				res, err := workloads.RunIncast(workloads.IncastConfig{
					Scheme: scheme, Senders: 4, Workers: p.topoWorkers,
					Seed: p.seed + 1, Warmup: warm, Duration: dur, Inspect: inspect,
				})
				return res, res.Gbps, err
			}, warm))
		mc := topologyJob("rpc/"+string(scheme), scheme, false,
			func(warm, dur sim.Time, inspect func([]*testbed.Machine) error) (any, float64, error) {
				res, err := workloads.RunMemcachedCluster(workloads.MemcachedClusterConfig{
					Scheme: scheme, Clients: 2, Servers: 2, Workers: p.topoWorkers,
					Seed: p.seed + 2, Warmup: warm, Duration: dur, Inspect: inspect,
				})
				return res, 0, err
			}, warm)
		mc.setShare = clusterSetShare
		jobs = append(jobs, mc)
	}
	return jobs
}

// clusterServers is the number of memcached servers; Inspect lists them
// first.
const clusterServers = 2

// clusterSetShare counts requests at the servers: a GET request is a lone
// 256 B segment, a SET request carries its value in the same segment.
func clusterSetShare(snaps []stats.Snapshot) (sets, requests float64) {
	for _, s := range snaps[:min(clusterServers, len(snaps))] {
		small, big := splitHistogram(s.Histograms["device/nic_rx_segment_bytes"], 512)
		requests += small + big
		sets += big
	}
	return sets, requests
}

// splitHistogram splits a log2 histogram's observations into those below
// limit and those at or above it. limit must be a power of two, so it falls
// on a bucket edge.
func splitHistogram(h stats.HistogramSnapshot, limit float64) (below, atOrAbove float64) {
	for _, b := range h.Buckets {
		if b.Le <= limit {
			below += float64(b.Count)
		} else {
			atOrAbove += float64(b.Count)
		}
	}
	return below, atOrAbove
}
