package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/asplos18/damn/internal/sim.(*Engine).Run":             "sim",
		"github.com/asplos18/damn/internal/workloads.RunNetperf.func1":    "workloads",
		"github.com/asplos18/damn/internal/stats.hasKey[...]":             "stats",
		"github.com/asplos18/damn/internal/netstack.(*SKBuff).CopyToUser": "netstack",
		"main.machineJob.func1": "bench",
		"main.main":             "bench",
		"github.com/asplos18/damn/perfbench.digestOf": "bench",
		"runtime.mallocgc":                            "",
		"runtime.main":                                "",
		"sort.Slice":                                  "",
		"github.com/asplos18/damn.NewMachine":         "",
		"github.com/asplos18/damn/internal/iommu.(*IOMMU).translateLocked":  "iommu",
		"github.com/asplos18/damn/internal/damn.(*DAMN).Alloc":              "damn",
		"github.com/asplos18/damn/internal/device.(*NIC).deliver.func2":     "device",
		"github.com/asplos18/damn/internal/testbed.NewMachine":              "testbed",
		"github.com/asplos18/damn/internal/topo.(*Topology).Run":            "topo",
		"github.com/asplos18/damn/internal/sim.(*Cluster).runEpoch.gowrap1": "sim",
		"github.com/asplos18/damn/internal/dmaapi.(*DeferredScheme).Unmap":  "dmaapi",
		"github.com/asplos18/damn/internal/iova.(*Allocator).Alloc":         "iova",
		"github.com/asplos18/damn/internal/mem.New":                         "mem",
		"github.com/asplos18/damn/internal/perf.CPUCopy":                    "perf",
		"internal/runtime/atomic.(*Uint32).Load":                            "",
		"github.com/asplos18/damn/internal/faults.(*Injector).Should":       "faults",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributionOverCannedStacks charges a fixed set of stacks: the
// innermost repository frame wins, runtime and standard-library leaves
// count for their repository caller, and stacks without a repository frame
// are runtime's.
func TestAttributionOverCannedStacks(t *testing.T) {
	ms := time.Millisecond
	p := &cpuProfile{samples: []profSample{
		{cpu: 10 * ms, labels: map[string]string{spanLabel: "run"}, stack: []string{
			"runtime.memclrNoHeapPointers",
			"github.com/asplos18/damn/internal/netstack.(*SKBuff).CopyToUser",
			"github.com/asplos18/damn/internal/netstack.(*Receiver).HandleSegment",
			"github.com/asplos18/damn/internal/workloads.RunNetperf.func1",
			"github.com/asplos18/damn/internal/sim.(*Engine).Run",
			"main.machineJob.func1.2",
		}},
		{cpu: 10 * ms, labels: map[string]string{spanLabel: "run"}, stack: []string{
			"runtime.mapaccess2",
			"runtime.mallocgc",
			"github.com/asplos18/damn/internal/iommu.(*IOMMU).translateLocked",
			"github.com/asplos18/damn/internal/device.(*NIC).deliver",
		}},
		{cpu: 20 * ms, labels: map[string]string{spanLabel: "build"}, stack: []string{
			"github.com/asplos18/damn/internal/mem.New",
			"github.com/asplos18/damn/internal/testbed.NewMachine",
			"main.machineJob.func1.1",
		}},
		{cpu: 10 * ms, labels: map[string]string{spanLabel: "check"}, stack: []string{
			"encoding/json.(*encodeState).marshal",
			"main.digestOf",
		}},
		{cpu: 30 * ms, stack: []string{
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}},
		{cpu: 10 * ms, labels: map[string]string{spanLabel: "run"}, stack: nil},
	}}
	byLayer, bySpan := selfTimes(p)
	want := map[string]time.Duration{
		"netstack": 10 * ms,
		"iommu":    10 * ms,
		"mem":      20 * ms,
		"bench":    10 * ms,
		"runtime":  40 * ms,
	}
	if len(byLayer) != len(want) {
		t.Errorf("layers %v, want %v", byLayer, want)
	}
	for l, w := range want {
		if byLayer[l] != w {
			t.Errorf("%s self time %v, want %v", l, byLayer[l], w)
		}
	}
	if got := bySpan["mem"]["build"]; got != 20*ms {
		t.Errorf("mem build time %v, want 20ms", got)
	}
	if got := bySpan["runtime"][""]; got != 30*ms {
		t.Errorf("unlabelled runtime time %v, want 30ms", got)
	}
	if got := bySpan["runtime"]["run"]; got != 10*ms {
		t.Errorf("labelled runtime time %v, want 10ms", got)
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		n++
	}
	return n
}

// TestParseOwnProfile profiles a labelled busy loop and reads the profile
// back: samples carry the span label and a stack through this package.
func TestParseOwnProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	tr := newTracer()
	tr.do(context.Background(), "run", "spin", func(context.Context) { spin(time.Now().Add(300 * time.Millisecond)) })
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, ours time.Duration
	for _, s := range p.samples {
		if s.labels[spanLabel] != "run" {
			continue
		}
		labelled += s.cpu
		if attribute(s.stack) == "bench" {
			ours += s.cpu
		}
	}
	if labelled < 100*time.Millisecond || ours < labelled/2 {
		t.Fatalf("profile has %v labelled CPU, %v of it in this package; want most of 300ms", labelled, ours)
	}
	var chrome bytes.Buffer
	if err := tr.writeChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur < 3e5 {
		t.Fatalf("spans %+v, want one 300ms X span", doc.TraceEvents)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte{0x12, 0xff}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
