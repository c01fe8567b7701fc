package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// AccessRecord is one structured access-log line: who, what, how long,
// and — for slow requests — the full phase breakdown of where the time
// went. Serialized as a single JSON object per line.
type AccessRecord struct {
	// Time is the completion wall-clock time, RFC3339Nano.
	Time string `json:"time"`
	// ID is the request id (echoed X-Request-ID or server-generated).
	ID string `json:"id"`
	// Method and Path identify the HTTP call.
	Method string `json:"method"`
	Path   string `json:"path"`
	// Status is the HTTP response status code.
	Status int `json:"status"`
	// WallMS is the request's total wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Slow marks a request that exceeded the slow threshold; slow lines
	// bypass sampling and carry Phases/Attrs.
	Slow bool `json:"slow,omitempty"`
	// Attrs echoes the trace annotations (slow lines only).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Phases is the per-phase breakdown (slow lines only).
	Phases []PhaseSnapshot `json:"phases,omitempty"`
}

// AccessLogger writes sampled structured JSON access-log lines, with an
// unsampled slow-request escape hatch: a request at or above the slow
// threshold is always logged, with its full phase breakdown, regardless
// of the sampling rate. Safe for concurrent use; a nil *AccessLogger is
// valid and discards everything.
type AccessLogger struct {
	mu     sync.Mutex
	w      io.Writer
	sample int64
	slow   time.Duration
	n      atomic.Int64
}

// NewAccessLogger builds a logger writing to w. sample logs one in every
// sample fast requests (<=1 logs all); slow is the threshold at or above
// which a request is always logged with its phase breakdown (<=0
// disables the slow path). A nil w returns a nil (discarding) logger.
func NewAccessLogger(w io.Writer, sample int, slow time.Duration) *AccessLogger {
	if w == nil {
		return nil
	}
	if sample < 1 {
		sample = 1
	}
	return &AccessLogger{w: w, sample: int64(sample), slow: slow}
}

// Log emits one access-log line for a completed request, applying the
// sampling and slow-request rules. snap is the request's final trace
// snapshot (zero value when tracing was off). Returns whether a line was
// written. No-op on a nil logger.
func (l *AccessLogger) Log(method, path string, status int, wall time.Duration, snap RequestSnapshot) bool {
	if l == nil {
		return false
	}
	slow := l.slow > 0 && wall >= l.slow
	if !slow && l.sample > 1 && l.n.Add(1)%l.sample != 1 {
		return false
	}
	rec := AccessRecord{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		ID:     snap.ID,
		Method: method,
		Path:   path,
		Status: status,
		WallMS: float64(wall.Nanoseconds()) / 1e6,
		Slow:   slow,
	}
	if slow {
		rec.Attrs = snap.Attrs
		rec.Phases = snap.Phases
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	b = append(b, '\n')
	l.mu.Lock()
	_, werr := l.w.Write(b)
	l.mu.Unlock()
	return werr == nil
}
