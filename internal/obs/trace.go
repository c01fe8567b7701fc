package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records every individual span completion (not just the merged
// aggregates of the span tree) so a run can be replayed as a timeline in
// chrome://tracing or Perfetto. It is gated separately from the rest of
// the instrumentation because per-occurrence recording costs one buffer
// append per span; enable it with EnableTracing (the -trace flag on
// cmd/experiments and cmd/gcntest does both Enable and EnableTracing).
var tracing atomic.Bool

// EnableTracing turns per-occurrence span recording on. Spans only
// exist while the instrumentation master switch is on, so callers
// normally pair this with Enable.
func EnableTracing() { tracing.Store(true) }

// DisableTracing turns per-occurrence span recording off; already
// buffered trace events are kept until Reset.
func DisableTracing() { tracing.Store(false) }

// traceEvent is one entry of the Chrome Trace Event Format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" for complete spans, "i" for instants, "M" for metadata.
// Timestamps and durations are microseconds.
type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// tracePID is the constant process id used in exported traces (the
// format requires one; a single-process run has nothing to distinguish).
const tracePID = 1

// defaultTraceCapacity bounds the span-event buffer (~100 B/event →
// tens of MB worst case). Unlike the event ring, the trace keeps the
// *first* N spans and counts the rest as dropped: a truncated timeline
// with an intact beginning is more useful than one whose spans have no
// surviving parents.
const defaultTraceCapacity = 1 << 18

// tracer buffers span completions and the tid→name registrations used
// to label training workers in the exported timeline.
type tracer struct {
	mu       sync.Mutex
	spans    []traceEvent
	dropped  int64
	capacity int
	threads  map[int64]string
}

var tr = &tracer{capacity: defaultTraceCapacity}

// recordSpanTrace appends one completed span occurrence.
func recordSpanTrace(path string, tid int64, start time.Time, dur time.Duration) {
	ev := traceEvent{
		Name: path,
		Ph:   "X",
		TS:   float64(start.Sub(processEpoch).Nanoseconds()) / 1e3,
		Dur:  float64(dur.Nanoseconds()) / 1e3,
		PID:  tracePID,
		TID:  tid,
	}
	tr.mu.Lock()
	if len(tr.spans) < tr.capacity {
		tr.spans = append(tr.spans, ev)
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()
}

// TraceThreadName labels a tid in the exported timeline (e.g. training
// workers). No-op while tracing is off.
func TraceThreadName(tid int64, name string) {
	if !tracing.Load() {
		return
	}
	tr.mu.Lock()
	if tr.threads == nil {
		tr.threads = map[int64]string{}
	}
	tr.threads[tid] = name
	tr.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.dropped = 0
	t.threads = nil
	t.mu.Unlock()
}

// traceFile is the exported JSON document. The object form (rather than
// the bare array form) is used so viewers get the display unit and the
// drop count.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// marshalTrace assembles and serializes a trace document from explicit
// inputs: metadata first (process name, then thread names sorted by
// tid), then span and instant events merged in timestamp order. Split
// from the live-buffer plumbing so the golden test can pin the exact
// output bytes.
func marshalTrace(spans []traceEvent, events []EventRecord, threads map[int64]string, dropped int64) ([]byte, error) {
	out := make([]traceEvent, 0, len(spans)+len(events)+len(threads)+2)
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": "repro"},
	})
	tids := make([]int64, 0, len(threads))
	hasMain := false
	for tid := range threads {
		tids = append(tids, tid)
		if tid == 0 {
			hasMain = true
		}
	}
	if !hasMain {
		tids = append(tids, 0)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		name := threads[tid]
		if name == "" {
			name = "main"
		}
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": name},
		})
	}

	timed := make([]traceEvent, 0, len(spans)+len(events))
	timed = append(timed, spans...)
	for _, ev := range events {
		timed = append(timed, traceEvent{
			Name: ev.Name, Ph: "i", TS: float64(ev.TS) / 1e3,
			PID: tracePID, TID: 0, Scope: "t", Args: ev.Attrs,
		})
	}
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].TS < timed[j].TS })
	out = append(out, timed...)

	doc := traceFile{TraceEvents: out, DisplayTimeUnit: "ms"}
	if dropped > 0 {
		doc.OtherData = map[string]any{"dropped_span_events": dropped}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TraceJSON serializes everything recorded so far — span occurrences,
// the event timeline as instant events, and thread names — as a Chrome
// Trace Event Format document loadable in chrome://tracing or Perfetto.
func TraceJSON() ([]byte, error) {
	tr.mu.Lock()
	spans := make([]traceEvent, len(tr.spans))
	copy(spans, tr.spans)
	threads := make(map[int64]string, len(tr.threads))
	for tid, name := range tr.threads {
		threads[tid] = name
	}
	dropped := tr.dropped
	tr.mu.Unlock()
	evs, _ := events.snapshot()
	return marshalTrace(spans, evs, threads, dropped)
}

// WriteTrace serializes the recorded timeline to path.
func WriteTrace(path string) error {
	b, err := TraceJSON()
	if err != nil {
		return fmt.Errorf("obs: marshal trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}
