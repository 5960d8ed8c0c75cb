package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestCounterGaugeFloat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("iommu", "iotlb_hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("iommu", "iotlb_hits") != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("iommu", "invq_depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	f := r.FloatCounter("perf", "cycles_unmap")
	f.Add(1.5)
	f.Add(2.25)
	if got := f.Value(); got != 3.75 {
		t.Fatalf("float counter = %v, want 3.75", got)
	}
}

func TestNilRegistryAndMetricsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("a", "b").Inc()
	r.FloatCounter("a", "b").Add(1)
	r.Gauge("a", "b").Set(1)
	r.Histogram("a", "b").Observe(1)
	if got := r.Counter("a", "b").Value(); got != 0 {
		t.Fatalf("nil counter = %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %v", snap)
	}
	var tr *Tracer
	tr.Span(1, 1, "x", "", 0, 10)
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded events")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sim", "task_ps")
	for _, v := range []float64{0, 0.5, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	s := h.snapshot()
	if s.Min != 0 || s.Max != 1000 {
		t.Fatalf("min/max = %v/%v, want 0/1000", s.Min, s.Max)
	}
	if want := 0 + 0.5 + 1 + 2 + 3 + 1000.0; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", total)
	}
	// An observation far beyond 2^64 clamps into the last bucket.
	h.Observe(math.MaxFloat64)
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("device", "rx_segments").Add(42)
	r.Gauge("damn", "footprint_bytes").Set(1 << 20)
	r.FloatCounter("perf", "cycles_copy").Add(99.5)
	r.Histogram("iommu", "invq_drain_batch").Observe(8)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if back.Counter("device/rx_segments") != 42 {
		t.Fatalf("round-tripped counter = %d, want 42", back.Counter("device/rx_segments"))
	}
	if back.Gauges["damn/footprint_bytes"] != 1<<20 {
		t.Fatal("gauge lost in round trip")
	}
	if back.Histograms["iommu/invq_drain_batch"].Count != 1 {
		t.Fatal("histogram lost in round trip")
	}
	if back.Floats["perf/cycles_copy"] != 99.5 {
		t.Fatal("float counter lost in round trip")
	}
}

func TestTracerChromeFormat(t *testing.T) {
	tr := NewTracer()
	pid := tr.Process("fig4/damn")
	tr.ThreadName(pid, 0, "core0")
	tr.Span(pid, 0, "task", "sim", 1_000_000, 2_000_000) // 1us..3us

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("trace has %d events, want 3", len(doc.TraceEvents))
	}
	var sawSpan bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			sawSpan = true
			if ev["ts"].(float64) != 1.0 || ev["dur"].(float64) != 2.0 {
				t.Fatalf("span ts/dur = %v/%v, want 1/2 us", ev["ts"], ev["dur"])
			}
		}
	}
	if !sawSpan {
		t.Fatal("no complete event in trace")
	}
}

func TestTracerLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(3)
	for i := 0; i < 10; i++ {
		tr.Span(1, 0, "task", "", int64(i), 1)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
}

// TestViewsReadComponentCounts: a view reports what its function reads at
// snapshot time, beside handles, and nothing is counted through it.
func TestViewsReadComponentCounts(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	var depth int64
	r.CounterFunc("iommu", "iotlb_hits", func() uint64 { return hits })
	r.GaugeFunc("damn", "footprint_bytes", func() int64 { return depth })
	r.Counter("iommu", "invq_rejected").Inc()
	if got := r.Snapshot().Counters["iommu/iotlb_hits"]; got != 0 {
		t.Fatalf("fresh view = %d, want 0", got)
	}
	hits, depth = 7, -3
	snap := r.Snapshot()
	if snap.Counter("iommu/iotlb_hits") != 7 || snap.Gauges["damn/footprint_bytes"] != -3 {
		t.Fatalf("views = %d/%d, want 7/-3", snap.Counter("iommu/iotlb_hits"), snap.Gauges["damn/footprint_bytes"])
	}
	if snap.Counter("iommu/invq_rejected") != 1 || len(snap.Counters) != 2 || len(snap.Gauges) != 1 {
		t.Fatalf("snapshot = %+v, want one handle beside the two views", snap)
	}
}

// TestKeyIsHandleOrView: registering a view on a handle's or a view's key
// panics, and so does asking for a handle on a view's key.
func TestKeyIsHandleOrView(t *testing.T) {
	zero := func() uint64 { return 0 }
	for name, fn := range map[string]func(r *Registry){
		"view on counter": func(r *Registry) { r.Counter("a", "b"); r.CounterFunc("a", "b", zero) },
		"view on view":    func(r *Registry) { r.CounterFunc("a", "b", zero); r.CounterFunc("a", "b", zero) },
		"view on gauge": func(r *Registry) {
			r.Gauge("a", "b")
			r.GaugeFunc("a", "b", func() int64 { return 0 })
		},
		"counter on view": func(r *Registry) { r.CounterFunc("a", "b", zero); r.Counter("a", "b") },
		"gauge on view": func(r *Registry) {
			r.GaugeFunc("a", "b", func() int64 { return 0 })
			r.Gauge("a", "b")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(NewRegistry())
		}()
	}
}

// TestNilRegistryIgnoresViews: a nil registry never calls a view.
func TestNilRegistryIgnoresViews(t *testing.T) {
	var r *Registry
	r.CounterFunc("a", "b", func() uint64 { t.Error("view called"); return 0 })
	r.GaugeFunc("a", "c", func() int64 { t.Error("view called"); return 0 })
	if snap := r.Snapshot(); len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("nil registry snapshot not empty: %v", snap)
	}
}
