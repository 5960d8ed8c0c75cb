package stats

import (
	"encoding/json"
	"io"
	"sync"
)

// Tracer collects discrete-event timeline records and writes them in the
// Chrome trace_event JSON format, loadable in chrome://tracing or Perfetto.
// The mapping from the simulator: one traced machine is a "process", each
// simulated core is a "thread", and every task the core executes becomes a
// complete ("X") event spanning its simulated start and duration. Metadata
// ("M") events name the processes and threads.
//
// Timestamps arrive in simulated picoseconds and are emitted in the format's
// microseconds. All methods are nil-safe, so instrumentation sites need no
// guards when tracing is off.
type Tracer struct {
	mu      sync.Mutex
	events  []traceEvent
	nextPID int
	limit   int
	dropped uint64
}

// traceEvent is one trace_event record. Fields follow the Trace Event
// Format: ph is the phase (X=complete, M=metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// defaultTraceLimit bounds memory: a full damnbench run generates millions
// of task spans; past the limit further events are counted as dropped.
const defaultTraceLimit = 2_000_000

// NewTracer returns an empty tracer with the default event limit.
func NewTracer() *Tracer { return &Tracer{limit: defaultTraceLimit} }

// SetLimit overrides the event cap (0 means unlimited).
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// psToUS converts simulated picoseconds to trace microseconds.
func psToUS(ps int64) float64 { return float64(ps) / 1e6 }

// Process allocates a process ID for one traced machine and names it.
func (t *Tracer) Process(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextPID++
	pid := t.nextPID
	t.events = append(t.events, traceEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
	return pid
}

// ThreadName labels a thread (simulated core) within a process.
func (t *Tracer) ThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
}

// add appends an event, honoring the limit.
func (t *Tracer) add(ev traceEvent) {
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Span records a complete event covering [startPS, startPS+durPS) of
// simulated time.
func (t *Tracer) Span(pid, tid int, name, cat string, startPS, durPS int64) {
	if t == nil {
		return
	}
	dur := psToUS(durPS)
	if dur <= 0 {
		// chrome://tracing hides zero-duration complete events; clamp to
		// the smallest representable width instead.
		dur = 0.001
	}
	t.add(traceEvent{Name: name, Cat: cat, Ph: "X", TS: psToUS(startPS), Dur: dur, PID: pid, TID: tid})
}

// Len reports the number of recorded events (metadata included).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped reports events discarded after the limit was reached.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSON emits the trace in the JSON object format chrome://tracing
// accepts ({"traceEvents":[...]}).
func (t *Tracer) WriteJSON(w io.Writer) error {
	var events []traceEvent
	if t != nil {
		t.mu.Lock()
		events = append(events, t.events...)
		t.mu.Unlock()
	}
	if events == nil {
		events = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
