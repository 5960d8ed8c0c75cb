package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestDigestsAcrossWorkerCounts runs every workload once at the reference
// seed with one host worker and with two — job workers for the
// single-machine mixes, sim.Cluster workers for the topologies — and checks
// that each job's digest is the same both ways and matches digests.json.
func TestDigestsAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range allWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			got := map[int]map[string]string{}
			for _, workers := range []int{1, 2} {
				b := &bench{wl: wl, ref: ref, log: &bytes.Buffer{}, opts: options{
					seed: ref.Seed, workers: workers, topoWorkers: workers,
				}}
				b.iterate(context.Background(), nil)
				if b.failed > 0 {
					t.Fatalf("%d workers: %d of %d jobs failed:\n%s", workers, b.failed, b.attempted, b.log)
				}
				got[workers] = b.digests
			}
			want := ref.Workloads[wl.name]
			if len(want) == 0 || len(got[1]) != len(want) {
				t.Fatalf("%d jobs digested, %d in digests.json", len(got[1]), len(want))
			}
			for job, d := range want {
				if got[1][job] != d || got[2][job] != d {
					t.Errorf("%s: digest %s at 1 worker, %s at 2, reference %s", job, got[1][job], got[2][job], d)
				}
			}
		})
	}
}

// TestRunPrintsResultLast drives the command line on the smallest mix and
// checks the last output line is the result object with the end-to-end
// metrics.
func TestRunPrintsResultLast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out, log bytes.Buffer
	code := run([]string{"--workload", "netperf-rx-1core", "--seed", "1", "--seconds", "0.1", "--trace", "0"}, &out, &log)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, log.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 7 || res.Failed != 0 {
		t.Errorf("result %+v, want 7 correct jobs", res)
	}
	for _, name := range []string{"wall_s", "setup_s", "sim_seg_per_s", "peak_rss_mb", "damn_gbps",
		"damn_vs_off_pct", "damn_cpu_us_per_mb", "jobs_ok_pct"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("metric %s = %+v, want a positive value with a unit", name, m)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "netperf-rx-1core", "--trace", "2"},
		{"--workload", "netperf-rx-1core", "--seconds", "0"},
		{"--workload", "netperf-rx-1core", "extra"},
	} {
		var out, log bytes.Buffer
		if code := run(args, &out, &log); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d with output %q, want exit 2 and no output", args, code, out.String())
		}
	}
}
