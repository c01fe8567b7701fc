package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestScoreHappyPathAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})

	var resp ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	sum := sha256.Sum256([]byte(tinyBench))
	if want := hex.EncodeToString(sum[:]); resp.Design != want {
		t.Fatalf("design id %q, want content hash %q", resp.Design, want)
	}
	if resp.Nodes != 5 || len(resp.Scores) != 5 || resp.Cached {
		t.Fatalf("nodes=%d scores=%d cached=%v", resp.Nodes, len(resp.Scores), resp.Cached)
	}
	want := expectedScores(t, tinyBench)
	for v := range want {
		if resp.Scores[v] != want[v] {
			t.Fatalf("node %d: score %g, want %g", v, resp.Scores[v], want[v])
		}
	}
	// The difficult list must be exactly the nodes at/above threshold,
	// sorted by descending score.
	var above int
	for _, p := range want {
		if p >= 0.5 {
			above++
		}
	}
	if len(resp.Difficult) != above {
		t.Fatalf("difficult=%d, want %d", len(resp.Difficult), above)
	}
	for i := 1; i < len(resp.Difficult); i++ {
		if resp.Difficult[i].Score > resp.Difficult[i-1].Score {
			t.Fatal("difficult list not sorted by descending score")
		}
	}

	// Identical request again: warm-cache hit, no recompile.
	var again ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &again); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !again.Cached || again.Design != resp.Design {
		t.Fatalf("cached=%v design=%q", again.Cached, again.Design)
	}
}

func TestScoreMalformedNetlist400(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	body, _ := json.Marshal(ScoreRequest{Netlist: "g1 = FROB(a,\n"})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if cat := errCategory(t, resp); cat != ErrInvalidRequest {
		t.Fatalf("category %q", cat)
	}
}

func TestScoreBadJSONAndMissingField400(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || errCategory(t, resp) != ErrInvalidRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || errCategory(t, resp) != ErrInvalidRequest {
		t.Fatalf("missing netlist: status %d", resp.StatusCode)
	}
}

func TestScoreBodyTooLarge413(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}, MaxBodyBytes: 64})
	body, _ := json.Marshal(ScoreRequest{Netlist: tinyBench})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 413 || errCategory(t, resp) != ErrTooLarge {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestScoreReverseChainInBoundedStack posts a 100,000-cell NOT chain
// whose every cell is declared before its driver, under a 16 MiB stack
// limit. A parse that recurses once per level overflows that stack and
// kills the whole process; one that does not answers 200 with the
// scores of the same chain declared forward. Not parallel: the limit is
// process-wide.
func TestScoreReverseChainInBoundedStack(t *testing.T) {
	old := debug.SetMaxStack(16 << 20)
	defer debug.SetMaxStack(old)
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	const cells = 100000
	lines := []string{"INPUT(n0)"}
	for i := 1; i <= cells; i++ {
		lines = append(lines, fmt.Sprintf("n%d = NOT(n%d)", i, i-1))
	}
	lines = append(lines, fmt.Sprintf("OUTPUT(n%d)", cells))
	forward := strings.Join(lines, "\n") + "\n"
	slices.Reverse(lines[:cells+1])
	reversed := strings.Join(lines, "\n") + "\n"

	var fwd, rev ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: forward}, &fwd); code != 200 {
		t.Fatalf("forward chain: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: reversed}, &rev); code != 200 {
		t.Fatalf("reversed chain: status %d", code)
	}
	if rev.Nodes != cells+2 || len(rev.Scores) != len(fwd.Scores) {
		t.Fatalf("reversed chain: %d nodes, %d scores; forward %d scores", rev.Nodes, len(rev.Scores), len(fwd.Scores))
	}
	for v := range fwd.Scores {
		if rev.Scores[v] != fwd.Scores[v] {
			t.Fatalf("node %d: reversed chain scores %g, forward %g", v, rev.Scores[v], fwd.Scores[v])
		}
	}
}

func TestDeltaFlow(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})

	var base ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &base)

	// Observe g1 (id 2): one OP node appended, scores refreshed
	// incrementally.
	var delta ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score/delta",
		DeltaRequest{Design: base.Design, Observe: []int32{2}}, &delta); code != 200 {
		t.Fatalf("status %d", code)
	}
	if delta.Design == base.Design {
		t.Fatal("delta did not re-key the design")
	}
	if delta.Nodes != 6 || len(delta.Scores) != 6 {
		t.Fatalf("nodes=%d scores=%d, want 6", delta.Nodes, len(delta.Scores))
	}
	if len(delta.Inserted) != 1 || delta.Inserted[0].ID != 2 {
		t.Fatalf("inserted=%v", delta.Inserted)
	}
	if !delta.Cached {
		t.Fatal("delta response not marked cached")
	}

	// Same edit computed offline must agree exactly.
	wantAfter := func() []float64 {
		n, meas, g := compileForTest(t, tinyBench)
		if _, _, err := insertForTest(n, meas, g, 2); err != nil {
			t.Fatal(err)
		}
		return (&stubPredictor{}).PredictProbs(g)
	}()
	for v := range wantAfter {
		if delta.Scores[v] != wantAfter[v] {
			t.Fatalf("node %d: delta score %g, want %g", v, delta.Scores[v], wantAfter[v])
		}
	}

	// The superseded id no longer resolves; the new one takes deltas by
	// name too.
	body, _ := json.Marshal(DeltaRequest{Design: base.Design, Observe: []int32{3}})
	resp, err := http.Post(ts.URL+"/v1/score/delta", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 || errCategory(t, resp) != ErrNotFound {
		t.Fatalf("superseded id: status %d", resp.StatusCode)
	}
	var second ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score/delta",
		DeltaRequest{Design: delta.Design, ObserveNames: []string{"g2"}}, &second); code != 200 {
		t.Fatalf("named delta status %d", code)
	}
	if second.Nodes != 7 {
		t.Fatalf("nodes=%d after second delta", second.Nodes)
	}
}

func TestDeltaUnknownDesign404(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	body, _ := json.Marshal(DeltaRequest{Design: "deadbeef", Observe: []int32{0}})
	resp, err := http.Post(ts.URL+"/v1/score/delta", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 || errCategory(t, resp) != ErrNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestDeltaInvalidTargets400(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	var base ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &base)

	for _, req := range []DeltaRequest{
		{Design: base.Design, Observe: []int32{99}},           // out of range
		{Design: base.Design, Observe: []int32{0}},            // Input cell
		{Design: base.Design, ObserveNames: []string{"nope"}}, // unknown name
		{Design: base.Design},                                 // empty delta
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/score/delta", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 || errCategory(t, resp) != ErrInvalidRequest {
			t.Fatalf("req %+v: status %d", req, resp.StatusCode)
		}
	}
}

func TestShed429WithRetryAfter(t *testing.T) {
	stub := &stubPredictor{started: make(chan struct{}, 1), release: make(chan struct{})}
	_, ts := newTestServer(t, Options{Predictor: stub, MaxConcurrent: 1, MaxQueue: 1})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupies the only slot, blocked in the forward pass
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, nil)
	}()
	<-stub.started
	go func() { // fills the one queue slot
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: otherBench}, nil)
	}()

	// Once the second request occupies the queue, the next one must be
	// shed immediately; the queue-depth gauge reports when it is in.
	waitUntil(t, 5*time.Second, func() bool { return mQueueDepth.Value() == 1 })

	body, _ := json.Marshal(ScoreRequest{Netlist: thirdBench})
	shed, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if shed.StatusCode != 429 {
		t.Fatalf("status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if cat := errCategory(t, shed); cat != ErrOverloaded {
		t.Fatalf("category %q", cat)
	}
	close(stub.release)
	wg.Wait()
}

func TestDeadlineExceeded504(t *testing.T) {
	stub := &stubPredictor{started: make(chan struct{}, 1), release: make(chan struct{})}
	_, ts := newTestServer(t, Options{Predictor: stub, MaxConcurrent: 1, MaxQueue: 4})

	done := make(chan struct{})
	go func() { // occupies the only slot
		defer close(done)
		postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, nil)
	}()
	<-stub.started

	// This request can only wait in the queue; its 50 ms deadline expires
	// there deterministically.
	body, _ := json.Marshal(ScoreRequest{Netlist: otherBench, TimeoutMs: 50})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 504 {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if cat := errCategory(t, resp); cat != ErrDeadlineExceeded {
		t.Fatalf("category %q", cat)
	}
	close(stub.release)
	<-done
}

// TestHugeTimeoutKeepsDefaultDeadline: timeout_ms can only shorten the
// deadline, so the largest value must leave the default in force rather
// than overflow into an already-expired one.
func TestHugeTimeoutKeepsDefaultDeadline(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	body, _ := json.Marshal(ScoreRequest{Netlist: tinyBench, TimeoutMs: math.MaxInt64})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeout_ms %d: status %d, want 200", int64(math.MaxInt64), resp.StatusCode)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{Predictor: &stubPredictor{}, ModelInfo: "stub model"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || h.Status != "ok" || h.Model != "stub model" {
		t.Fatalf("status=%d health=%+v", resp.StatusCode, h)
	}

	s.StartDraining()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || h.Status != "draining" {
		t.Fatalf("draining: status=%d health=%+v", resp.StatusCode, h)
	}
}

func TestMetricsExposedOnSameMux(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "repro_serve_score_requests_total") {
		t.Fatal("/metrics does not expose serve.* keys")
	}
}

func TestOPIOnSubmittedNetlist(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	var resp OPIResponse
	if code := postJSON(t, ts.URL+"/v1/opi",
		OPIRequest{Netlist: tinyBench, MaxPoints: 2}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Iterations < 1 {
		t.Fatalf("iterations=%d", resp.Iterations)
	}
	if len(resp.Points) > 2 {
		t.Fatalf("points=%d exceeds max_points", len(resp.Points))
	}
	for _, p := range resp.Points {
		if p.ID < 0 || p.ID >= 5 {
			t.Fatalf("suggested point %d outside the design", p.ID)
		}
	}
}

func TestOPIOnCachedDesignDoesNotMutateIt(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	var base ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &base)

	var resp OPIResponse
	if code := postJSON(t, ts.URL+"/v1/opi",
		OPIRequest{Design: base.Design, MaxPoints: 1}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Design != base.Design {
		t.Fatalf("opi echoed design %q, want %q", resp.Design, base.Design)
	}

	// The cached design is untouched: rescoring returns the same state.
	var again ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &again)
	if !again.Cached || again.Nodes != 5 {
		t.Fatalf("cached=%v nodes=%d after opi", again.Cached, again.Nodes)
	}
}

// TestOPIOnCachedDesignRunsOneForward covers the fallback path: core
// cannot copy the stub's sessions, so /v1/opi on a cached design opens
// one session over the copy, and pays that one full forward. It labels
// its points with the scores /v1/score serves for the design instead of
// scoring the copy a second time. A *core.Model or *core.MultiStage
// design's session is copied instead (TestOPIByIDRunsNoForward).
func TestOPIOnCachedDesignRunsOneForward(t *testing.T) {
	stub := &stubPredictor{}
	_, ts := newTestServer(t, Options{Predictor: stub})
	var base ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &base); code != 200 {
		t.Fatalf("score status %d", code)
	}
	forwards, predicts := stub.forwards.Load(), stub.predicts.Load()
	var resp OPIResponse
	if code := postJSON(t, ts.URL+"/v1/opi",
		OPIRequest{Design: base.Design, Threshold: 1e-9, MaxPoints: 2}, &resp); code != 200 {
		t.Fatalf("opi status %d", code)
	}
	if f, p := stub.forwards.Load()-forwards, stub.predicts.Load()-predicts; f != 1 || p != 0 {
		t.Fatalf("opi opened %d sessions and made %d PredictProbs calls, want 1 and 0", f, p)
	}
	if len(resp.Points) == 0 {
		t.Fatal("opi suggested no points")
	}
	for _, p := range resp.Points {
		if p.Score != base.Scores[p.ID] {
			t.Fatalf("point %d: score %g, /v1/score served %g", p.ID, p.Score, base.Scores[p.ID])
		}
	}
}

func TestOPIArgumentValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	for _, tc := range []struct {
		req  OPIRequest
		code int
	}{
		{OPIRequest{}, 400}, // neither
		{OPIRequest{Netlist: tinyBench, Design: "x"}, 400}, // both
		{OPIRequest{Design: "unknown"}, 404},               // missing design
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/v1/opi", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("req %+v: status %d, want %d", tc.req, resp.StatusCode, tc.code)
		}
	}
}

// waitUntil polls cond until it returns true or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
