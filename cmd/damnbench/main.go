// Command damnbench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated testbed and prints them as text tables.
//
// Usage:
//
//	damnbench [-quick] [-parallel N] [-seed N] [-exp NAME[,NAME...]]
//	          [-recovery]
//	          [-faults P] [-fault-seed N] [-stats out.json] [-trace out.trace]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -exp takes a comma-separated list of catalog names, in any order; the
// figures run in catalog order. "all" (the default) is every paper figure:
// table1, fig4, fig5, fig6, table3, fig2, fig7, fig8, fig9, fig10, fig11,
// ablations and footnote5. The figures beyond the paper — scaling, chaos,
// recovery, loss, cluster, tenants, bypass and attacks — run only when
// named, so -exp all,bypass adds one of them to the paper's output. Any
// other name exits 2 and lists the valid ones.
//
// The default full-fidelity run takes a few minutes; -quick shrinks the
// measurement windows for a fast smoke pass. -parallel N fans each figure's
// scheme × datapoint jobs out across N workers (default GOMAXPROCS;
// -parallel 1 reproduces the fully serial run). Every job owns a private
// simulated machine and RNG and results are collected in declaration order,
// so stdout is byte-identical for every N; per-figure timing and the lines
// reporting the -stats and -trace files go to stderr to keep stdout the
// figures alone. -stats writes a JSON document with every machine's
// metrics registry keyed "<figure>/<scheme>"; -trace writes a Chrome
// trace_event file (load in chrome://tracing or Perfetto) with one process
// per simulated machine and one thread per core — tracing shares one sink
// across machines, so it forces a serial run. The cluster figure emits one
// machine per topology and is not traced. -cpuprofile and -memprofile
// profile the simulator itself on the host clock (runtime/pprof CPU and
// allocation profiles, for go tool pprof); they leave stdout unchanged.
//
// -faults P arms the deterministic fault-injection plane on every machine:
// each fault kind (link drop/corrupt/duplicate/reorder, DMA faults,
// invalidation time-outs, IOVA/memory exhaustion, lost/delayed completions)
// fires with per-visit probability P on the schedule rooted at -fault-seed.
// -exp chaos runs the dedicated chaos harness and prints the injected-fault
// and recovery evidence.
//
// -recovery (or -exp recovery) adds the fault-domain recovery figure: per
// scheme, a DMA-fault storm quarantines the NIC and the recovery supervisor
// heals it; the row reports the throughput dip, detection latency and MTTR.
// With -exp chaos, -recovery also attaches the supervisor to the chaos
// machines, so chaos storms are contained instead of ridden out.
//
// -exp scaling is the RSS scale-out figure: netperf RX throughput at
// 1/2/4/8/16 simulated cores per scheme, with flows spread across one RX
// ring per core by the deterministic Toeplitz hash. The run fails if any RX
// completion executes off its ring's core or any DAMN request is clamped to
// a foreign shard.
//
// -exp loss is the loss-resilience figure: reliable (ARQ) flows per scheme
// over a lossy link (0–5% drop/corrupt), reporting delivered goodput,
// retransmission rate, CPU per delivered megabyte, and a chaos column where
// the same flows ride the uniform all-kinds fault schedule under the
// recovery supervisor. The fault schedule is rooted at -fault-seed and
// replays exactly.
//
// -exp tenants is the multi-tenant isolation figure: N tenants (1/2/4/8)
// share one protected NIC, each with its own virtual function — a private
// IOMMU domain, DAMN cache generation and RSS ring pair — behind a
// capability-checked buffer handoff and a weighted fair share of the PCIe
// ceiling. For every N > 1 datapoint one tenant is compromised (forged
// capabilities, DMA probes into sibling IOVA ranges, a VF-filtered DMA-fault
// storm); the row reports the neighbours' worst goodput ratio, where the
// containment ladder left the attacker, and what the capability gate and
// per-tenant domains blocked.
//
// -exp bypass is the kernel-bypass figure: the five kernel schemes under
// single-core netperf RX next to bypass-raw (virtio-style polling rings,
// permanent identity mappings, no protection — the DPDK baseline) and
// bypass-prot (the same rings behind a per-app IOMMU domain registered once
// at setup). Rows report goodput, CPU microseconds per megabyte (busy-poll
// spin included), idle busy-poll burn, and the measured Table 1 safety
// verdicts; the run fails unless raw beats iommu-off, prot stays within 10%
// of raw, and both burn idle CPU. The bypass family also appears as extra
// rows of the scaling figure.
//
// -exp attacks is the DMA attack matrix (§2.1, §4.1): a compromised NIC
// mounts every attack scenario against the five kernel schemes and both
// bypass flavors, one fresh machine per pair, and each row reports whether
// the attack LANDED or was BLOCKED. The scenarios are arbitrary-read,
// co-location, window-write, tocttou-header and fault-storm (the storm runs
// with the recovery supervisor attached) everywhere; tenant-probe (the
// attacker as a compromised SR-IOV tenant) on the kernel schemes; and
// pool-escape and pool-window (the app's DMA identity probing outside, and
// rewriting inside, its registered hugepage pool) on the bypass pair.
// Table 1 and the bypass figure take their safety columns from the same
// scenarios. -seed, -faults, -fault-seed, -parallel, -stats and -trace
// apply as for any figure; under -faults the verdicts must not change.
//
// -exp cluster is the multi-machine cluster figure: per scheme, a 4-sender
// incast storm through a tail-dropping router and a 2-client/2-server
// memcached cluster behind a load balancer, both on the sharded
// conservative topology engine, which advances a topology's machines in
// lookahead epochs on one goroutine. -parallel spreads the schemes over
// workers, as for any figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/asplos18/damn/internal/experiments"
	"github.com/asplos18/damn/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "short measurement windows")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker count (1 = serial; output is byte-identical for any value)")
	seed := flag.Int64("seed", 1, "simulation seed")
	faultRate := flag.Float64("faults", 0, "per-visit fault-injection probability for every fault kind (0 = off); see internal/faults")
	faultSeed := flag.Int64("fault-seed", 1, "seed of the deterministic fault schedule (used with -faults or -exp chaos)")
	exp := flag.String("exp", "all", "experiments to run (comma separated): "+strings.Join(expNames(), ", "))
	recover := flag.Bool("recovery", false, "fault-domain recovery: add the recovery figure to the run, and attach the device-recovery supervisor to chaos machines")
	statsOut := flag.String("stats", "", "write per-figure metrics snapshots to this JSON file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of every simulated machine")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the run (runtime/pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a host allocation profile of the run (runtime/pprof) to this file")
	flag.Parse()

	figs, err := selectFigures(*exp, *recover)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		os.Exit(1)
	}
	// exit finishes the profiles first: os.Exit skips deferred calls.
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			code = max(code, 1)
		}
		os.Exit(code)
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed, Parallel: *parallel,
		FaultRate: *faultRate, FaultSeed: *faultSeed, Recovery: *recover}
	var snaps map[string]stats.Snapshot
	if *statsOut != "" {
		snaps = map[string]stats.Snapshot{}
		opts.OnStats = func(label string, snap stats.Snapshot) { snaps[label] = snap }
	}
	if *traceOut != "" {
		opts.Tracer = stats.NewTracer()
	}
	for _, fig := range figs {
		start := time.Now()
		out, err := fig.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", fig.Name, err)
			exit(1)
		}
		fmt.Println(out)
		// Wall-clock timing goes to stderr: stdout stays byte-identical
		// across runs and -parallel settings.
		fmt.Fprintf(os.Stderr, "(%s computed in %.1fs)\n", fig.Name, time.Since(start).Seconds())
	}
	if *statsOut != "" {
		if err := writeStats(*statsOut, snaps); err != nil {
			fmt.Fprintf(os.Stderr, "stats: %v\n", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d metric snapshots to %s\n", len(snaps), *statsOut)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts.Tracer); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s", opts.Tracer.Len(), *traceOut)
		if d := opts.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, " (%d dropped past the event limit)", d)
		}
		fmt.Fprintln(os.Stderr)
	}
	exit(0)
}

// expNames lists the names -exp accepts: "all", then the catalog in order.
func expNames() []string {
	names := []string{"all"}
	for _, fig := range experiments.Catalog() {
		names = append(names, fig.Name)
	}
	return names
}

// selectFigures returns the catalog entries an -exp list names, in catalog
// order. "all" names every paper figure; the figures beyond the paper run
// only when named, so -exp all stays the paper's output. recovery adds the
// recovery figure. A name that is neither "all" nor a catalog entry is an
// error that lists the valid names.
func selectFigures(exp string, recovery bool) ([]experiments.Figure, error) {
	valid := expNames()
	want := map[string]bool{"recovery": recovery}
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s", name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	var figs []experiments.Figure
	for _, fig := range experiments.Catalog() {
		if want[fig.Name] || (want["all"] && fig.Paper) {
			figs = append(figs, fig)
		}
	}
	return figs, nil
}

func writeStats(path string, snaps map[string]stats.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snaps); err != nil {
		return err
	}
	return f.Close()
}

func writeTrace(path string, tr *stats.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}
