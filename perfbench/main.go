// Command perfbench is the repository's benchmark. It runs one of four
// workloads through the public testbed / workloads / topo API, repeats it for
// a fixed host-time budget, checks every job's simulated results, and prints
// one JSON object as its last line of output:
//
//   - with -trace 0, the end-to-end metrics (host set-up and run cost, peak
//     RSS, and DAMN's simulated goodput and CPU cost), each the median over
//     the repetitions of the run;
//   - with -trace 1, the per-layer metrics: host self time per repository
//     layer from a labelled CPU profile, layer micros, counts from the stats
//     registries, and Go runtime allocation and GC figures.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload netperf-rx-1core --seed 1 --seconds 20 --trace 0
//
// README.md in this directory documents the workloads, metrics and noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// hostWorkers is the host parallelism of every mix: single-machine jobs fan
// out over this many workers, and each topology's sim.Cluster runs on this
// many, as damnbench does by default on the 2-CPU host the benchmark was
// built on. Tests compare it against one worker.
const hostWorkers = 2

// options is the parsed command line.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	workers     int
	topoWorkers int
	outDir      string
	record      string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to spend repeating the workload")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the traced run's spans and CPU profile")
	fs.StringVar(&o.record, "record-digests", "", "write this run's job digests as the reference for its seed to the given file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.workers, o.topoWorkers = hostWorkers, hostWorkers
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	wl, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bench{wl: wl, opts: o, log: stderr}
	var res report
	if o.trace {
		res, err = b.traced()
	} else {
		res, err = b.timed()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.record != "" {
		if err := recordDigests(o.record, wl.name, o.seed, b.digests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's one-line result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printTable writes the metrics, sorted by name, to w for a human reader.
func printTable(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range slices.Sorted(maps.Keys(ms)) {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// recordDigests merges one workload's digests into the reference file.
func recordDigests(path, workload string, seed int64, digests map[string]string) error {
	ref := referenceFile{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	}
	if ref.Seed != 0 && ref.Seed != seed {
		return fmt.Errorf("%s holds digests for seed %d, not %d", path, ref.Seed, seed)
	}
	ref.Seed = seed
	if ref.Workloads == nil {
		ref.Workloads = map[string]map[string]string{}
	}
	ref.Workloads[workload] = digests
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
