// Package stats is the simulator-wide observability layer: a
// zero-dependency metrics registry (typed counters, gauges and log-scale
// histograms, keyed by component) plus an optional Chrome trace_event sink
// (trace.go). Every layer of the simulated machine — the event engine, the
// perf cost model, the IOMMU, DAMN, the DMA API and the devices — records
// into one Registry owned by its testbed.Machine, so every simulated cycle
// charge, IOTLB invalidation and cache hit is attributable after a run.
//
// A metric is a handle or a view. A count that a component already keeps
// for its own use or for the figures (IOTLB hits, translations, NIC
// segments, chunks created) is a view: the component registers a function
// with CounterFunc or GaugeFunc that reads the count, and Snapshot calls it,
// so the event path pays nothing for the metric. A count only the registry
// keeps (DAMN magazine hits, per-scheme DMA API maps, task counts, every
// histogram and float counter) is a handle: the component looks it up once
// and bumps it per event. Handles are plain fields and nil-safe, so callers
// never guard instrumentation sites, and a nil registry ignores views as it
// hands out nil handles.
//
// A Registry belongs to one machine and, like every component of it, is
// driven by the one goroutine that drives the machine: handles are bumped
// and Snapshot reads the views on that goroutine, or after the machine
// stops. Only the Tracer is shared across machines, and it takes a lock.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// FloatCounter accumulates a float64 total (cycle charges are fractional).
type FloatCounter struct {
	v float64
}

// Add accumulates v into the counter.
func (c *FloatCounter) Add(v float64) {
	if c != nil {
		c.v += v
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time integer metric (queue depths, footprints).
type Gauge struct {
	v int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the bucket count of a log-scale histogram: bucket i counts
// observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v < 1), covering
// the full uint64 range.
const histBuckets = 65

// Histogram is a log2-bucketed distribution of non-negative observations
// (latencies in picoseconds, queue depths, batch sizes).
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// Observe records one observation. Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := 0
	if v >= 1 {
		b = int(math.Floor(math.Log2(v))) + 1
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.buckets[b]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// snapshot returns the exported form. Only non-empty buckets are kept, keyed
// by their upper bound (2^i).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: math.Pow(2, float64(i)), Count: n})
	}
	return s
}

// metricKey identifies one metric: the component that owns it plus its name.
type metricKey struct {
	component string
	name      string
}

func (k metricKey) String() string { return k.component + "/" + k.name }

// Registry holds every metric of one simulated machine: the handles it
// keeps and the views that read counts their components keep.
type Registry struct {
	counters     map[metricKey]*Counter
	floats       map[metricKey]*FloatCounter
	gauges       map[metricKey]*Gauge
	hists        map[metricKey]*Histogram
	counterViews map[metricKey]func() uint64
	gaugeViews   map[metricKey]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[metricKey]*Counter),
		floats:       make(map[metricKey]*FloatCounter),
		gauges:       make(map[metricKey]*Gauge),
		hists:        make(map[metricKey]*Histogram),
		counterViews: make(map[metricKey]func() uint64),
		gaugeViews:   make(map[metricKey]func() int64),
	}
}

// handle returns (creating if needed) the handle stored under k in m. It
// panics if views holds k: a key is a handle or a view, never both.
func handle[T, V any](m map[metricKey]*T, views map[metricKey]V, k metricKey) *T {
	if _, ok := views[k]; ok {
		panic(fmt.Sprintf("stats: %s is a view, not a handle", k))
	}
	h, ok := m[k]
	if !ok {
		h = new(T)
		m[k] = h
	}
	return h
}

// addView registers fn under k in views. It panics if k already names a
// handle in m or a view.
func addView[T, V any](m map[metricKey]*T, views map[metricKey]V, k metricKey, fn V) {
	_, isHandle := m[k]
	_, isView := views[k]
	if isHandle || isView {
		panic(fmt.Sprintf("stats: %s is already registered", k))
	}
	views[k] = fn
}

// Counter returns (creating if needed) the named counter. A nil registry
// returns a nil handle, whose methods are no-ops.
func (r *Registry) Counter(component, name string) *Counter {
	if r == nil {
		return nil
	}
	return handle(r.counters, r.counterViews, metricKey{component, name})
}

// FloatCounter returns (creating if needed) the named float accumulator.
func (r *Registry) FloatCounter(component, name string) *FloatCounter {
	if r == nil {
		return nil
	}
	return handle[FloatCounter, struct{}](r.floats, nil, metricKey{component, name})
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(component, name string) *Gauge {
	if r == nil {
		return nil
	}
	return handle(r.gauges, r.gaugeViews, metricKey{component, name})
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(component, name string) *Histogram {
	if r == nil {
		return nil
	}
	return handle[Histogram, struct{}](r.hists, nil, metricKey{component, name})
}

// CounterFunc registers a counter view: Snapshot reports fn() under the
// key. fn reads a count its component keeps. A nil registry ignores the
// view.
func (r *Registry) CounterFunc(component, name string, fn func() uint64) {
	if r != nil {
		addView(r.counters, r.counterViews, metricKey{component, name}, fn)
	}
}

// GaugeFunc registers a gauge view, as CounterFunc does a counter view.
func (r *Registry) GaugeFunc(component, name string, fn func() int64) {
	if r != nil {
		addView(r.gauges, r.gaugeViews, metricKey{component, name}, fn)
	}
}

// HistogramBucket is one exported log2 bucket: Count observations <= Le.
type HistogramBucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is the exported form of a histogram.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of a registry, keyed by
// "component/name", ready for JSON encoding.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Floats     map[string]float64           `json:"floats,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports every metric. A nil registry exports an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Floats:     map[string]float64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	for k, c := range r.counters {
		s.Counters[k.String()] = c.Value()
	}
	for k, c := range r.floats {
		s.Floats[k.String()] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k.String()] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k.String()] = h.snapshot()
	}
	for k, fn := range r.counterViews {
		s.Counters[k.String()] = fn()
	}
	for k, fn := range r.gaugeViews {
		s.Gauges[k.String()] = fn()
	}
	return s
}

// Counter returns a counter's value from the snapshot ("component/name").
func (s Snapshot) Counter(key string) uint64 { return s.Counters[key] }

// WriteJSON encodes the snapshot, indented, to w.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
