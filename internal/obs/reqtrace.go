package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing, in the spirit of x/net/trace: every request a
// server handles gets a ReqTrace that records a phase breakdown
// (queue-wait, parse, forward, ...) plus string annotations (cache
// hit/miss, batcher leader attribution). Live traces are listed in an
// inflight registry; finished traces land in a bounded ring of recent
// requests. GET /debug/requests (RequestsHandler) exposes both, so "why
// was *this* call slow" is answerable while the server runs.
//
// Like the rest of the package, everything is nil-safe and gated on
// Enable: StartRequest returns nil while instrumentation is off, and all
// ReqTrace/ReqPhase methods are no-ops on a nil receiver.

// defaultRecentRequests bounds the completed-request ring.
const defaultRecentRequests = 256

// PhaseSnapshot is one completed phase of a request: where it started
// relative to the request's own start, and how long it took.
type PhaseSnapshot struct {
	// Name is the phase name (e.g. "queue", "parse", "forward").
	Name string `json:"name"`
	// StartNS is nanoseconds since the request started.
	StartNS int64 `json:"start_ns"`
	// DurNS is the phase's wall time in nanoseconds.
	DurNS int64 `json:"dur_ns"`
}

// RequestSnapshot is the serialized form of one traced request.
type RequestSnapshot struct {
	// ID is the request id (client-supplied X-Request-ID or generated).
	ID string `json:"id"`
	// Name is the server-side operation name (e.g. "score", "opi").
	Name string `json:"name"`
	// StartNS is monotonic nanoseconds since process start.
	StartNS int64 `json:"start_ns"`
	// WallNS is the request's total wall time; for an inflight request it
	// is the elapsed time at snapshot.
	WallNS int64 `json:"wall_ns"`
	// Status is the terminal status (HTTP status code text); empty while
	// the request is still inflight.
	Status string `json:"status,omitempty"`
	// Attrs holds string annotations (cache: hit/miss, batch.leader: the
	// coalescing leader's request id, ...), serialized with sorted keys.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Phases is the phase breakdown in completion order.
	Phases []PhaseSnapshot `json:"phases,omitempty"`
}

// ReqTrace is one live request trace. Obtain with StartRequest, record
// phases with StartPhase/End and annotations with Annotate, and call
// Finish exactly once when the request completes.
type ReqTrace struct {
	seq     uint64
	id      string
	name    string
	start   time.Time
	startNS int64

	mu     sync.Mutex
	phases []PhaseSnapshot
	attrs  map[string]string
	done   bool
}

// ReqPhase is one open phase of a request; close it with End.
type ReqPhase struct {
	t     *ReqTrace
	name  string
	start time.Time
}

// reqRegistry holds the inflight set and the bounded recent ring.
type reqRegistry struct {
	mu       sync.Mutex
	seq      uint64
	inflight map[uint64]*ReqTrace
	recent   []RequestSnapshot
	next     int // ring write cursor once full
	full     bool
	dropped  int64
	capacity int
}

var reqs = &reqRegistry{capacity: defaultRecentRequests, inflight: map[uint64]*ReqTrace{}}

// StartRequest opens a trace for one request and registers it in the
// inflight set. Returns nil (a valid no-op trace) while instrumentation
// is disabled.
func StartRequest(name, id string) *ReqTrace {
	if !enabled.Load() {
		return nil
	}
	t := &ReqTrace{id: id, name: name, start: time.Now(), startNS: nowNS()}
	reqs.mu.Lock()
	reqs.seq++
	t.seq = reqs.seq
	reqs.inflight[t.seq] = t
	reqs.mu.Unlock()
	return t
}

// ID returns the trace's request id ("" on a nil trace).
func (t *ReqTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Annotate attaches a string key/value to the trace. No-op on nil.
func (t *ReqTrace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = map[string]string{}
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// StartPhase opens a named phase; close it with End. Phases may overlap
// and are recorded in completion order. No-op (returns nil) on a nil
// trace.
func (t *ReqTrace) StartPhase(name string) *ReqPhase {
	if t == nil {
		return nil
	}
	return &ReqPhase{t: t, name: name, start: time.Now()}
}

// End closes the phase, appending it to the trace's breakdown. No-op on
// a nil receiver; must be called at most once.
func (p *ReqPhase) End() {
	if p == nil {
		return
	}
	t := p.t
	t.mu.Lock()
	t.phases = append(t.phases, PhaseSnapshot{
		Name:    p.name,
		StartNS: p.start.Sub(t.start).Nanoseconds(),
		DurNS:   time.Since(p.start).Nanoseconds(),
	})
	t.mu.Unlock()
}

// snapshotLocked copies the trace's current state; callers hold t.mu.
func (t *ReqTrace) snapshotLocked(status string, wall int64) RequestSnapshot {
	s := RequestSnapshot{
		ID: t.id, Name: t.name, StartNS: t.startNS, WallNS: wall, Status: status,
	}
	if len(t.attrs) > 0 {
		s.Attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			s.Attrs[k] = v
		}
	}
	s.Phases = append([]PhaseSnapshot(nil), t.phases...)
	return s
}

// Finish closes the trace: it leaves the inflight set and its final
// snapshot (with the given terminal status) enters the recent ring,
// overwriting the oldest entry once the ring is full. Returns the final
// snapshot (zero value on a nil trace).
func (t *ReqTrace) Finish(status string) RequestSnapshot {
	if t == nil {
		return RequestSnapshot{}
	}
	t.mu.Lock()
	if t.done {
		snap := t.snapshotLocked(status, time.Since(t.start).Nanoseconds())
		t.mu.Unlock()
		return snap
	}
	t.done = true
	snap := t.snapshotLocked(status, time.Since(t.start).Nanoseconds())
	t.mu.Unlock()

	reqs.mu.Lock()
	delete(reqs.inflight, t.seq)
	if len(reqs.recent) < reqs.capacity {
		reqs.recent = append(reqs.recent, snap)
	} else {
		reqs.recent[reqs.next] = snap
		reqs.next = (reqs.next + 1) % reqs.capacity
		reqs.full = true
		reqs.dropped++
	}
	reqs.mu.Unlock()
	return snap
}

// RequestsPage is the /debug/requests document: live inflight requests,
// the bounded ring of recently completed ones (oldest first), and how
// many older completions the ring has already overwritten.
type RequestsPage struct {
	Inflight    []RequestSnapshot `json:"inflight"`
	Recent      []RequestSnapshot `json:"recent"`
	Overwritten int64             `json:"overwritten,omitempty"`
}

// SnapshotRequests captures the current inflight set (sorted by start
// time) and the recent-completion ring (chronological).
func SnapshotRequests() RequestsPage {
	reqs.mu.Lock()
	live := make([]*ReqTrace, 0, len(reqs.inflight))
	for _, t := range reqs.inflight {
		live = append(live, t)
	}
	var page RequestsPage
	page.Overwritten = reqs.dropped
	if reqs.full {
		page.Recent = append(page.Recent, reqs.recent[reqs.next:]...)
		page.Recent = append(page.Recent, reqs.recent[:reqs.next]...)
	} else {
		page.Recent = append(page.Recent, reqs.recent...)
	}
	reqs.mu.Unlock()

	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	for _, t := range live {
		t.mu.Lock()
		page.Inflight = append(page.Inflight, t.snapshotLocked("", nowNS()-t.startNS))
		t.mu.Unlock()
	}
	return page
}

// reset clears the registry (Reset calls this).
func (r *reqRegistry) reset() {
	r.mu.Lock()
	r.inflight = map[uint64]*ReqTrace{}
	r.recent = nil
	r.next = 0
	r.full = false
	r.dropped = 0
	r.mu.Unlock()
}

// reqCtxKey keys the active request trace in a context.
type reqCtxKey struct{}

// ContextWithRequest returns a context carrying the trace; subsystems
// downstream retrieve it with RequestFromContext to record phases into
// the originating request.
func ContextWithRequest(ctx context.Context, t *ReqTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, reqCtxKey{}, t)
}

// RequestFromContext returns the context's active request trace, or nil.
func RequestFromContext(ctx context.Context) *ReqTrace {
	t, _ := ctx.Value(reqCtxKey{}).(*ReqTrace)
	return t
}

// reqIDCounter backs NewRequestID's fallback when crypto/rand fails.
var reqIDCounter atomic.Uint64

// NewRequestID returns a fresh 16-hex-character request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%012x", reqIDCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// SanitizeRequestID vets a client-supplied request id: only
// [A-Za-z0-9._-] survive, truncated to 64 characters. Returns "" when
// nothing survives (callers then generate one).
func SanitizeRequestID(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(out) < 64; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out = append(out, c)
		}
	}
	return string(out)
}

// requestsTemplate renders the HTML form of /debug/requests.
var requestsTemplate = template.Must(template.New("requests").Funcs(template.FuncMap{
	"ms": func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) },
}).Parse(`<!DOCTYPE html>
<html><head><title>/debug/requests</title><style>
body { font-family: monospace; } table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 2px 8px; text-align: left; }
</style></head><body>
<h1>requests</h1>
{{define "rows"}}{{range .}}<tr><td>{{.ID}}</td><td>{{.Name}}</td><td>{{.Status}}</td><td>{{ms .WallNS}}</td>
<td>{{range .Phases}}{{.Name}}={{ms .DurNS}}ms {{end}}</td>
<td>{{range $k, $v := .Attrs}}{{$k}}={{$v}} {{end}}</td></tr>
{{end}}{{end}}
<h2>inflight ({{len .Inflight}})</h2>
<table><tr><th>id</th><th>op</th><th>status</th><th>wall ms</th><th>phases</th><th>attrs</th></tr>
{{template "rows" .Inflight}}</table>
<h2>recent ({{len .Recent}}, {{.Overwritten}} overwritten)</h2>
<table><tr><th>id</th><th>op</th><th>status</th><th>wall ms</th><th>phases</th><th>attrs</th></tr>
{{template "rows" .Recent}}</table>
</body></html>
`))

// RequestsHandler serves the request inspector: the inflight set plus
// the recent-completion ring. JSON by default (the RequestsPage shape);
// ?format=html renders a browsable table in the spirit of x/net/trace.
func RequestsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		page := SnapshotRequests()
		if r.URL.Query().Get("format") == "html" {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			if err := requestsTemplate.Execute(w, page); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		b, err := json.MarshalIndent(page, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	})
}
