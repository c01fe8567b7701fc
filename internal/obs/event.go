package obs

import (
	"sync"
	"time"
)

// processEpoch anchors every event and trace timestamp: all times are
// reported as monotonic nanoseconds since process start, so timelines
// from one run are internally consistent regardless of wall-clock
// adjustments.
var processEpoch = time.Now()

// nowNS returns monotonic nanoseconds since processEpoch.
func nowNS() int64 { return time.Since(processEpoch).Nanoseconds() }

// Attr is one key/value attribute attached to an event. Construct with
// S (string), I (integer) or F (float); Value is constrained to those
// three kinds so events serialize deterministically.
type Attr struct {
	Key   string
	Value any
}

// S returns a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Value: v} }

// I returns an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Value: v} }

// F returns a float attribute.
func F(key string, v float64) Attr { return Attr{Key: key, Value: v} }

// EventRecord is one entry of the event timeline: a named point-in-time
// occurrence (an epoch finishing, a stage starting) with a monotonic
// timestamp and optional attributes. Events land in the run manifest
// (Snapshot.Events) and, when tracing is on, in the Chrome trace as
// instant events.
type EventRecord struct {
	// Name follows the "subsystem.event" convention (e.g. "train.epoch").
	Name string `json:"name"`
	// TS is monotonic nanoseconds since process start.
	TS int64 `json:"ts_ns"`
	// Attrs holds the event's attributes (string, int64 or float64
	// values), serialized with sorted keys.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// defaultEventCapacity bounds the event ring; a multi-hour run emitting
// one event per epoch/stage/iteration stays far below it, and anything
// chattier keeps the most recent window instead of growing without
// bound.
const defaultEventCapacity = 8192

// eventLog is a bounded ring buffer of EventRecords: once full, new
// events overwrite the oldest and the overwrite count is tracked.
type eventLog struct {
	mu        sync.Mutex
	buf       []EventRecord
	next      int // index of the next write
	full      bool
	overwrote int64
	capacity  int
}

var events = &eventLog{capacity: defaultEventCapacity}

func (l *eventLog) append(ev EventRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf == nil {
		l.buf = make([]EventRecord, 0, l.capacity)
	}
	if len(l.buf) < l.capacity {
		l.buf = append(l.buf, ev)
		return
	}
	l.buf[l.next] = ev
	l.next = (l.next + 1) % l.capacity
	l.full = true
	l.overwrote++
}

// snapshot returns the buffered events in chronological order plus the
// number of older events the ring has overwritten.
func (l *eventLog) snapshot() ([]EventRecord, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 {
		return nil, l.overwrote
	}
	out := make([]EventRecord, 0, len(l.buf))
	if l.full {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	} else {
		out = append(out, l.buf...)
	}
	return out, l.overwrote
}

func (l *eventLog) reset() {
	l.mu.Lock()
	l.buf = nil
	l.next = 0
	l.full = false
	l.overwrote = 0
	l.mu.Unlock()
}

// Event appends a named event with the given attributes to the event
// timeline. No-op while instrumentation is disabled; note the variadic
// attrs still box their values at the call site, so per-iteration hot
// paths should guard the whole call with Enabled (events are meant for
// epoch/stage/iteration granularity, where the cost is irrelevant).
func Event(name string, attrs ...Attr) {
	if !enabled.Load() {
		return
	}
	var m map[string]any
	if len(attrs) > 0 {
		m = make(map[string]any, len(attrs))
		for _, a := range attrs {
			m[a.Key] = a.Value
		}
	}
	events.append(EventRecord{Name: name, TS: nowNS(), Attrs: m})
}

// Events returns the buffered event timeline in chronological order.
func Events() []EventRecord {
	evs, _ := events.snapshot()
	return evs
}
