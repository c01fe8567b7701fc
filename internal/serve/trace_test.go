package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// slowPredictor wraps stubPredictor with a fixed forward-pass delay, so
// trace tests have a dominant, known-duration "forward" phase.
type slowPredictor struct {
	stubPredictor
	delay time.Duration
}

func (p *slowPredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	time.Sleep(p.delay)
	return p.stubPredictor.NewIncremental(g)
}

// postJSONWithID posts a JSON body with an X-Request-ID header and
// returns the response (caller closes the body).
func postJSONWithID(t *testing.T, url, id string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// findRecent pulls a completed request trace out of /debug/requests by
// id, polling because the middleware finishes the trace after the
// response body is written.
func findRecent(t *testing.T, baseURL, id string) obs.RequestSnapshot {
	t.Helper()
	var found obs.RequestSnapshot
	waitUntil(t, 5*time.Second, func() bool {
		resp, err := http.Get(baseURL + "/debug/requests")
		if err != nil {
			return false
		}
		var page obs.RequestsPage
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return false
		}
		for _, r := range page.Recent {
			if r.ID == id {
				found = r
				return true
			}
		}
		return false
	})
	return found
}

// TestRequestIDEchoAndTracePhaseSum is the tentpole acceptance test: a
// scored request echoes its X-Request-ID, and its completed trace on
// /debug/requests carries a phase breakdown whose durations sum to the
// measured wall time within 5%.
func TestRequestIDEchoAndTracePhaseSum(t *testing.T) {
	stub := &slowPredictor{delay: 80 * time.Millisecond}
	_, ts := newTestServer(t, Options{Predictor: stub})

	const id = "trace-sum-1"
	resp := postJSONWithID(t, ts.URL+"/v1/score", id, ScoreRequest{Netlist: tinyBench})
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Fatalf("X-Request-ID echoed %q, want %q", got, id)
	}

	rec := findRecent(t, ts.URL, id)
	if rec.Name != "score" || rec.Status != "200" {
		t.Fatalf("trace = %+v", rec)
	}
	if rec.Attrs["cache"] != "miss" {
		t.Fatalf("attrs = %v", rec.Attrs)
	}
	var sum int64
	byName := map[string]int64{}
	for _, ph := range rec.Phases {
		sum += ph.DurNS
		byName[ph.Name] += ph.DurNS
	}
	for _, want := range []string{"decode", "queue", "parse", "scoap", "forward", "rank", "encode"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("phase %q missing from %v", want, byName)
		}
	}
	if byName["forward"] < (60 * time.Millisecond).Nanoseconds() {
		t.Errorf("forward phase %dns does not cover the slow forward pass", byName["forward"])
	}
	if rec.WallNS <= 0 || sum > rec.WallNS || float64(sum) < 0.95*float64(rec.WallNS) {
		t.Errorf("phases sum %dns vs wall %dns: outside ±5%%", sum, rec.WallNS)
	}
}

// TestGeneratedRequestID pins the no-header and hostile-header paths:
// the server generates (or regenerates) an id and echoes it.
func TestGeneratedRequestID(t *testing.T) {
	stub := &stubPredictor{}
	_, ts := newTestServer(t, Options{Predictor: stub})

	resp, err := http.Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"netlist":"INPUT(a)\nOUTPUT(a)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("generated id %q, want 16 hex chars", id)
	}

	// Header-legal but entirely unsanitizable: every char is rejected, so
	// the server regenerates.
	hostile := postJSONWithID(t, ts.URL+"/v1/score", "@@@ %%%", ScoreRequest{Netlist: tinyBench})
	hostile.Body.Close()
	if id := hostile.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("hostile header echoed as %q, want a regenerated 16-hex id", id)
	}
}

// syncBuf is a mutex-guarded buffer for reading the access log while the
// server may still be writing it.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestLoggedUnsampled proves the slow path: with sampling
// effectively off (1 in 10^6), a request over the slow threshold still
// produces exactly one structured log line carrying its request id and
// per-phase durations, and increments serve.slow_requests.
func TestSlowRequestLoggedUnsampled(t *testing.T) {
	var log syncBuf
	stub := &slowPredictor{delay: 30 * time.Millisecond}
	_, ts := newTestServer(t, Options{
		Predictor:       stub,
		AccessLog:       &log,
		AccessLogSample: 1000000,
		SlowRequest:     10 * time.Millisecond,
	})
	slowBefore := mSlowRequests.Value()

	const id = "slow-req-1"
	resp := postJSONWithID(t, ts.URL+"/v1/score", id, ScoreRequest{Netlist: tinyBench})
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The log line lands after the response; poll for it.
	waitUntil(t, 5*time.Second, func() bool { return strings.Contains(log.String(), "\n") })
	var rec obs.AccessRecord
	line := strings.SplitN(log.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, line)
	}
	if !rec.Slow || rec.ID != id || rec.Method != "POST" || rec.Path != "/v1/score" || rec.Status != 200 {
		t.Fatalf("slow record = %+v", rec)
	}
	if rec.WallMS < 30 {
		t.Fatalf("wall %.1fms, want >= the 30ms forward delay", rec.WallMS)
	}
	hasForward := false
	for _, ph := range rec.Phases {
		if ph.Name == "forward" && ph.DurNS >= (30*time.Millisecond).Nanoseconds() {
			hasForward = true
		}
	}
	if !hasForward {
		t.Fatalf("slow line lacks the forward phase: %+v", rec.Phases)
	}
	if got := mSlowRequests.Value() - slowBefore; got != 1 {
		t.Fatalf("serve.slow_requests advanced by %d, want 1", got)
	}

	// A fast request under the huge sampling rate logs nothing new.
	fast := postJSONWithID(t, ts.URL+"/v1/designs", "fast-1", nil)
	fast.Body.Close()
	if n := strings.Count(log.String(), "\n"); n != 1 {
		t.Fatalf("%d log lines after a sampled-out fast request, want 1", n)
	}
}

// TestBatcherRiderNamesLeader extends the deterministic coalescing test
// with attribution: every rider's trace names the leader's request id,
// so a "why was this call slow" investigation can jump from a rider to
// the trace that actually did the work.
func TestBatcherRiderNamesLeader(t *testing.T) {
	const n = 4
	ids := []string{"batch-0", "batch-1", "batch-2", "batch-3"}
	stub := &stubPredictor{started: make(chan struct{}, 1), release: make(chan struct{})}
	_, ts := newTestServer(t, Options{Predictor: stub, MaxConcurrent: n, MaxQueue: n})

	coalescedBefore := mBatchCoalesced.Value()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSONWithID(t, ts.URL+"/v1/score", ids[i], ScoreRequest{Netlist: thirdBench})
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	// Park the leader inside the forward pass until all riders joined.
	<-stub.started
	waitUntil(t, 10*time.Second, func() bool {
		return mBatchCoalesced.Value()-coalescedBefore >= n-1
	})
	close(stub.release)
	wg.Wait()

	// All four traces are finished; collect them by id.
	mine := map[string]obs.RequestSnapshot{}
	waitUntil(t, 5*time.Second, func() bool {
		for _, r := range obs.SnapshotRequests().Recent {
			for _, id := range ids {
				if r.ID == id {
					mine[id] = r
				}
			}
		}
		return len(mine) == n
	})

	var leaderID string
	var riders []obs.RequestSnapshot
	for _, r := range mine {
		switch r.Attrs["batch.role"] {
		case "leader":
			if leaderID != "" {
				t.Fatalf("two leaders: %q and %q", leaderID, r.ID)
			}
			leaderID = r.ID
		case "rider":
			riders = append(riders, r)
		default:
			t.Fatalf("trace %q has no batch role: %v", r.ID, r.Attrs)
		}
	}
	if leaderID == "" || len(riders) != n-1 {
		t.Fatalf("leader=%q riders=%d, want 1 leader and %d riders", leaderID, len(riders), n-1)
	}
	for _, r := range riders {
		if r.Attrs["batch.leader"] != leaderID {
			t.Errorf("rider %q names leader %q, want %q", r.ID, r.Attrs["batch.leader"], leaderID)
		}
		found := false
		for _, ph := range r.Phases {
			if ph.Name == "batch_wait" {
				found = true
			}
		}
		if !found {
			t.Errorf("rider %q has no batch_wait phase: %+v", r.ID, r.Phases)
		}
	}
	// The compile phases live in the leader's trace, not the riders'.
	leader := mine[leaderID]
	names := map[string]bool{}
	for _, ph := range leader.Phases {
		names[ph.Name] = true
	}
	if !names["parse"] || !names["forward"] {
		t.Errorf("leader phases = %+v, want parse and forward", leader.Phases)
	}
}

// TestDesignsEndpoint covers GET /v1/designs: MRU ordering, hit counts,
// source sizes, and the rekey-after-delta behavior.
func TestDesignsEndpoint(t *testing.T) {
	stub := &stubPredictor{}
	_, ts := newTestServer(t, Options{Predictor: stub})

	var first ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &first); code != 200 {
		t.Fatalf("score status %d", code)
	}
	// Hit the cache once, then compile a second design.
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, nil); code != 200 {
		t.Fatalf("rescore status %d", code)
	}
	var second ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: otherBench}, &second); code != 200 {
		t.Fatalf("second score status %d", code)
	}

	var list DesignsResponse
	resp, err := http.Get(ts.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("designs: status=%d err=%v", resp.StatusCode, err)
	}
	if list.Capacity != 32 || len(list.Designs) != 2 {
		t.Fatalf("capacity=%d designs=%d, want 32 and 2", list.Capacity, len(list.Designs))
	}
	// MRU first: otherBench was touched last.
	if list.Designs[0].Design != second.Design || list.Designs[1].Design != first.Design {
		t.Fatalf("order = [%s, %s], want [%s, %s]",
			list.Designs[0].Design, list.Designs[1].Design, second.Design, first.Design)
	}
	tiny := list.Designs[1]
	if tiny.Hits != 1 || tiny.Nodes != 5 || tiny.SourceBytes != len(tinyBench) {
		t.Fatalf("tiny stats = %+v", tiny)
	}
	if tiny.AgeMs < 0 || tiny.IdleMs < 0 || tiny.IdleMs > tiny.AgeMs {
		t.Fatalf("tiny age/idle = %d/%d", tiny.AgeMs, tiny.IdleMs)
	}

	// A delta rekeys the design: the new id appears with grown node count
	// and no source text.
	var delta ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score/delta",
		DeltaRequest{Design: first.Design, Observe: []int32{2}}, &delta); code != 200 {
		t.Fatalf("delta status %d", code)
	}
	resp, err = http.Get(ts.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	list = DesignsResponse{}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var edited *DesignInfo
	for i := range list.Designs {
		if list.Designs[i].Design == delta.Design {
			edited = &list.Designs[i]
		}
		if list.Designs[i].Design == first.Design {
			t.Fatalf("stale pre-delta id still listed: %+v", list.Designs)
		}
	}
	if edited == nil || edited.Nodes != 6 || edited.SourceBytes != 0 {
		t.Fatalf("edited design = %+v", edited)
	}
}

// TestHealthzVersion pins the /healthz additions: the git version is
// reported alongside uptime.
func TestHealthzVersion(t *testing.T) {
	stub := &stubPredictor{}
	_, ts := newTestServer(t, Options{Predictor: stub})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: status=%d err=%v", resp.StatusCode, err)
	}
	if h.Version != obs.GitDescribe() {
		t.Fatalf("version %q, want obs.GitDescribe() %q", h.Version, obs.GitDescribe())
	}
	if h.UptimeMs < 0 || h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}
