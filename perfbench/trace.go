package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"
)

// tracer records host-time spans around every call the benchmark makes into
// the program, and labels the goroutine for the span's duration so CPU
// profile samples can be charged to the span they fell in. Spans are kept in
// memory and written out when the run ends. A nil tracer records nothing.
type tracer struct {
	t0   time.Time
	iter int // workload iteration; written only between iterations

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval.
type span struct {
	Kind   string
	Parent string // kind of the enclosing span ("" at top level)
	Job    string
	Iter   int
	Start  time.Duration
	End    time.Duration
}

// spanLabel is the pprof label key carrying the span kind.
const spanLabel = "span"

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span. fn receives the labelled context, which nested
// spans must use.
func (t *tracer) do(ctx context.Context, kind, job string, fn func(context.Context)) {
	if t == nil {
		fn(ctx)
		return
	}
	parent, _ := pprof.Label(ctx, spanLabel)
	start := time.Since(t.t0)
	pprof.Do(ctx, pprof.Labels(spanLabel, kind), fn)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Kind: kind, Parent: parent, Job: job, Iter: t.iter, Start: start, End: end})
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace_event JSON: one thread per
// job (micro samples share one), microsecond timestamps.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		key := fmt.Sprintf("%d/%s", s.Iter, s.Job)
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
		}
		events = append(events, event{
			Name: s.Kind + " " + s.Job, Cat: s.Kind, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"iter": s.Iter, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// modulePath is the import path prefix of this repository's packages.
const modulePath = "github.com/asplos18/damn/"

// layerOf names the repository layer a function belongs to: its package
// under internal/, or "bench" for this benchmark's own code (package main,
// which test binaries name by its import path). Other functions — the Go
// runtime and standard library — belong to no layer and return "".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePath+"internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, modulePath+"perfbench.") {
		return "bench"
	}
	return ""
}

// attribute charges a sample to the innermost repository frame of its
// stack (leaf first): runtime and standard-library frames count for their
// repository caller, and a stack with no repository frame is "runtime".
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// selfTimes sums CPU time per layer over the profile's samples, and per
// layer and span kind for the breakdown table.
func selfTimes(p *cpuProfile) (byLayer map[string]time.Duration, bySpan map[string]map[string]time.Duration) {
	byLayer = map[string]time.Duration{}
	bySpan = map[string]map[string]time.Duration{}
	for _, s := range p.samples {
		layer := attribute(s.stack)
		byLayer[layer] += s.cpu
		kind := s.labels[spanLabel]
		if bySpan[layer] == nil {
			bySpan[layer] = map[string]time.Duration{}
		}
		bySpan[layer][kind] += s.cpu
	}
	return byLayer, bySpan
}

// writeBreakdown prints per-layer self time split by span kind, in seconds
// per workload iteration.
func writeBreakdown(w io.Writer, bySpan map[string]map[string]time.Duration, iters int) {
	kinds := []string{"build", "run", "check", "teardown", "job", "collect", ""}
	fmt.Fprintf(w, "%-10s", "layer")
	for _, k := range kinds {
		name := k
		if name == "" {
			name = "(none)"
		}
		fmt.Fprintf(w, " %9s", name)
	}
	fmt.Fprintln(w)
	for _, l := range slices.Sorted(maps.Keys(bySpan)) {
		fmt.Fprintf(w, "%-10s", l)
		for _, k := range kinds {
			fmt.Fprintf(w, " %9.4f", bySpan[l][k].Seconds()/float64(iters))
		}
		fmt.Fprintln(w)
	}
}
