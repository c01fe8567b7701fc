package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestTraceLifecycle(t *testing.T) {
	withEnabled(t, func() {
		tr := StartRequest("score", "abc123")
		if tr == nil || tr.ID() != "abc123" {
			t.Fatalf("trace = %+v", tr)
		}
		page := SnapshotRequests()
		if len(page.Inflight) != 1 || page.Inflight[0].ID != "abc123" || page.Inflight[0].Status != "" {
			t.Fatalf("inflight = %+v", page.Inflight)
		}

		ph := tr.StartPhase("parse")
		time.Sleep(time.Millisecond)
		ph.End()
		tr.Annotate("cache", "miss")
		snap := tr.Finish("200")

		if snap.Status != "200" || snap.Attrs["cache"] != "miss" {
			t.Fatalf("snap = %+v", snap)
		}
		if len(snap.Phases) != 1 || snap.Phases[0].Name != "parse" || snap.Phases[0].DurNS <= 0 {
			t.Fatalf("phases = %+v", snap.Phases)
		}
		if snap.WallNS < snap.Phases[0].DurNS {
			t.Fatalf("wall %d < phase %d", snap.WallNS, snap.Phases[0].DurNS)
		}

		page = SnapshotRequests()
		if len(page.Inflight) != 0 {
			t.Fatalf("still inflight: %+v", page.Inflight)
		}
		if len(page.Recent) != 1 || page.Recent[0].ID != "abc123" || page.Recent[0].Status != "200" {
			t.Fatalf("recent = %+v", page.Recent)
		}
	})
}

func TestRequestTraceNilSafeWhenDisabled(t *testing.T) {
	Disable()
	tr := StartRequest("score", "x")
	if tr != nil {
		t.Fatal("disabled StartRequest returned a live trace")
	}
	// Every method must be a no-op on nil.
	tr.Annotate("k", "v")
	tr.StartPhase("p").End()
	if snap := tr.Finish("200"); snap.ID != "" {
		t.Fatalf("nil finish = %+v", snap)
	}
	if tr.ID() != "" {
		t.Fatal("nil ID not empty")
	}
	ctx := ContextWithRequest(context.Background(), nil)
	if RequestFromContext(ctx) != nil {
		t.Fatal("nil trace stored in context")
	}
}

func TestContextCarriesRequestTrace(t *testing.T) {
	withEnabled(t, func() {
		tr := StartRequest("op", "ctx-1")
		ctx := ContextWithRequest(context.Background(), tr)
		if got := RequestFromContext(ctx); got != tr {
			t.Fatalf("got %+v", got)
		}
		tr.Finish("200")
	})
}

// TestRecentRingWraparound pins the wraparound contract under concurrent
// finishes (run with -race): the ring holds exactly its capacity of the
// newest completions, the overwrite counter accounts for every older
// one, and no snapshot is torn — each retained record's attrs and phase
// list are internally consistent with its id.
func TestRecentRingWraparound(t *testing.T) {
	withEnabled(t, func() {
		const capacity, workers, perWorker = 32, 8, 100
		setRecentRequestCapacity(capacity)
		defer setRecentRequestCapacity(defaultRecentRequests)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					id := fmt.Sprintf("w%d-%d", w, i)
					tr := StartRequest("stress", id)
					tr.Annotate("echo", id)
					ph := tr.StartPhase("phase-" + id)
					ph.End()
					tr.Finish("200")
				}
			}(w)
		}
		wg.Wait()

		page := SnapshotRequests()
		if len(page.Inflight) != 0 {
			t.Fatalf("%d traces stuck inflight", len(page.Inflight))
		}
		if len(page.Recent) != capacity {
			t.Fatalf("ring holds %d, want %d", len(page.Recent), capacity)
		}
		const total = workers * perWorker
		if page.Overwritten != total-capacity {
			t.Fatalf("overwritten = %d, want %d", page.Overwritten, total-capacity)
		}
		for _, r := range page.Recent {
			if r.Attrs["echo"] != r.ID {
				t.Fatalf("torn record: id=%q attrs=%v", r.ID, r.Attrs)
			}
			if len(r.Phases) != 1 || r.Phases[0].Name != "phase-"+r.ID {
				t.Fatalf("torn phases for %q: %+v", r.ID, r.Phases)
			}
			if r.Status != "200" {
				t.Fatalf("record %q status %q", r.ID, r.Status)
			}
		}
	})
}

// TestEventRingWraparoundConcurrent is the matching stress for the event
// ring: concurrent appends past capacity lose only the oldest events,
// count every overwrite, and never tear a record (name and attrs written
// together stay together).
func TestEventRingWraparoundConcurrent(t *testing.T) {
	withEnabled(t, func() {
		const capacity, workers, perWorker = 64, 8, 200
		setEventCapacity(capacity)
		defer setEventCapacity(defaultEventCapacity)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					tag := fmt.Sprintf("w%d-%d", w, i)
					Event("stress."+tag, S("tag", tag), I("i", int64(i)))
				}
			}(w)
		}
		wg.Wait()

		evs, overwritten := events.snapshot()
		if len(evs) != capacity {
			t.Fatalf("ring holds %d events, want %d", len(evs), capacity)
		}
		const total = workers * perWorker
		if overwritten != total-capacity {
			t.Fatalf("overwritten = %d, want %d", overwritten, total-capacity)
		}
		for _, ev := range evs {
			tag := strings.TrimPrefix(ev.Name, "stress.")
			if ev.Attrs["tag"] != tag {
				t.Fatalf("torn event: name=%q attrs=%v", ev.Name, ev.Attrs)
			}
			var w, i int
			if _, err := fmt.Sscanf(tag, "w%d-%d", &w, &i); err != nil {
				t.Fatalf("bad tag %q: %v", tag, err)
			}
			if ev.Attrs["i"] != int64(i) {
				t.Fatalf("torn event: tag=%q i=%v", tag, ev.Attrs["i"])
			}
		}
	})
}

func TestRequestsHandlerJSONAndHTML(t *testing.T) {
	withEnabled(t, func() {
		tr := StartRequest("score", "handler-1")
		tr.StartPhase("forward").End()
		tr.Finish("200")
		live := StartRequest("opi", "handler-2")
		defer live.Finish("200")

		rec := httptest.NewRecorder()
		RequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("status=%d ct=%q", rec.Code, rec.Header().Get("Content-Type"))
		}
		var page RequestsPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(page.Recent) != 1 || page.Recent[0].ID != "handler-1" {
			t.Fatalf("recent = %+v", page.Recent)
		}
		if len(page.Inflight) != 1 || page.Inflight[0].ID != "handler-2" || page.Inflight[0].WallNS <= 0 {
			t.Fatalf("inflight = %+v", page.Inflight)
		}

		rec = httptest.NewRecorder()
		RequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests?format=html", nil))
		body := rec.Body.String()
		if rec.Code != http.StatusOK || !strings.Contains(body, "handler-1") || !strings.Contains(body, "<table>") {
			t.Fatalf("html render: status=%d body=%q", rec.Code, body)
		}
	})
}

func TestRequestIDHelpers(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids %q %q", a, b)
	}
	if got := SanitizeRequestID("ok-id_1.2"); got != "ok-id_1.2" {
		t.Errorf("sanitize clean: %q", got)
	}
	if got := SanitizeRequestID("a b\nc\x00d"); got != "abcd" {
		t.Errorf("sanitize dirty: %q", got)
	}
	if got := SanitizeRequestID(strings.Repeat("x", 100)); len(got) != 64 {
		t.Errorf("sanitize long: %d chars", len(got))
	}
	if got := SanitizeRequestID("\x01\x02"); got != "" {
		t.Errorf("sanitize hostile: %q", got)
	}
}

func TestAccessLoggerSamplingAndSlowBypass(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLogger(&buf, 10, 50*time.Millisecond)

	// 20 fast requests at 1-in-10 sampling: exactly 2 lines.
	for i := 0; i < 20; i++ {
		l.Log("POST", "/v1/score", 200, time.Millisecond, RequestSnapshot{ID: "fast"})
	}
	if lines := countLines(buf.String()); lines != 2 {
		t.Fatalf("sampled %d lines, want 2\n%s", lines, buf.String())
	}

	// A slow request always logs, with phases and attrs.
	buf.Reset()
	snap := RequestSnapshot{
		ID:     "slow-1",
		Attrs:  map[string]string{"cache": "miss"},
		Phases: []PhaseSnapshot{{Name: "forward", DurNS: int64(60 * time.Millisecond)}},
	}
	if !l.Log("POST", "/v1/score", 200, 60*time.Millisecond, snap) {
		t.Fatal("slow request not logged")
	}
	var rec AccessRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("line not JSON: %v\n%s", err, buf.String())
	}
	if !rec.Slow || rec.ID != "slow-1" || len(rec.Phases) != 1 || rec.Phases[0].Name != "forward" {
		t.Fatalf("slow record = %+v", rec)
	}
	if rec.Attrs["cache"] != "miss" || rec.WallMS < 59 {
		t.Fatalf("slow record = %+v", rec)
	}

	// Nil logger and nil writer: everything discards quietly.
	var nilLogger *AccessLogger
	if nilLogger.Log("GET", "/", 200, time.Second, RequestSnapshot{}) {
		t.Fatal("nil logger logged")
	}
	if NewAccessLogger(nil, 1, 0) != nil {
		t.Fatal("nil writer did not yield nil logger")
	}
}

func TestAccessLoggerConcurrentLinesStayWhole(t *testing.T) {
	var buf syncBuffer
	l := NewAccessLogger(&buf, 1, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Log("POST", "/v1/score", 200, time.Millisecond,
					RequestSnapshot{ID: "c" + strconv.Itoa(w*50+i)})
			}
		}(w)
	}
	wg.Wait()
	out := buf.String()
	if lines := countLines(out); lines != 400 {
		t.Fatalf("%d lines, want 400", lines)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var rec AccessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the logger serializes
// writes itself, but the test's final read must also be safe).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func countLines(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, "\n")
}

// setRecentRequestCapacity resizes (and clears) the recent-completion
// ring.
func setRecentRequestCapacity(n int) {
	reqs.mu.Lock()
	reqs.capacity = n
	reqs.recent = nil
	reqs.next = 0
	reqs.full = false
	reqs.dropped = 0
	reqs.mu.Unlock()
}

// setEventCapacity resizes (and clears) the event ring.
func setEventCapacity(n int) {
	events.mu.Lock()
	events.capacity = n
	events.buf = nil
	events.next = 0
	events.full = false
	events.overwrote = 0
	events.mu.Unlock()
}
