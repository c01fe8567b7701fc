package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/netlist"
)

func TestCacheLRUEviction(t *testing.T) {
	stub := &stubPredictor{}
	s, ts := newTestServer(t, Options{Predictor: stub, CacheEntries: 2})

	var first, second, third ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &first)
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: otherBench}, &second)
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: thirdBench}, &third)

	if got := s.CachedDesigns(); got != 2 {
		t.Fatalf("cache holds %d designs, want 2", got)
	}

	// The oldest design was evicted: a delta against it is a 404 and
	// rescoring it recompiles (cached=false, one more forward).
	body, _ := json.Marshal(DeltaRequest{Design: first.Design, Observe: []int32{2}})
	resp, err := http.Post(ts.URL+"/v1/score/delta", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 || errCategory(t, resp) != ErrNotFound {
		t.Fatalf("evicted design delta: status %d", resp.StatusCode)
	}
	forwards := stub.forwards.Load()
	var re ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &re)
	if re.Cached {
		t.Fatal("evicted design served as cached")
	}
	if stub.forwards.Load() != forwards+1 {
		t.Fatal("rescore of evicted design did not recompile")
	}

	// The most recent two stayed warm.
	var again ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: thirdBench}, &again)
	if !again.Cached {
		t.Fatal("recently used design was evicted")
	}
}

// TestCacheLRUTouchOnHit verifies hits refresh recency: after touching
// the oldest of two entries, inserting a third evicts the middle one.
func TestCacheLRUTouchOnHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}, CacheEntries: 2})
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, nil)
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: otherBench}, nil)
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, nil)  // touch oldest
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: thirdBench}, nil) // evicts otherBench

	var tiny ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &tiny)
	if !tiny.Cached {
		t.Fatal("touched design was evicted")
	}
	var other ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: otherBench}, &other)
	if other.Cached {
		t.Fatal("least recently used design survived past capacity")
	}
}

// TestCacheHashCollisionSafety forces every design onto one cache key
// and proves correctness does not rest on the hash: the stored netlist
// text is compared on lookup, so a colliding request recompiles instead
// of serving another design's scores.
func TestCacheHashCollisionSafety(t *testing.T) {
	s, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	s.cache.hasher = func([]byte) string { return "collision" } // test-only hook

	collisionsBefore := mCacheCollisions.Value()
	var a, b ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &a)
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: otherBench}, &b)

	if b.Cached {
		t.Fatal("colliding design served from another design's cache entry")
	}
	wantB := expectedScores(t, otherBench)
	if len(b.Scores) != len(wantB) {
		t.Fatalf("got %d scores, want %d", len(b.Scores), len(wantB))
	}
	for v := range wantB {
		if b.Scores[v] != wantB[v] {
			t.Fatalf("node %d: colliding request returned %g, want %g", v, b.Scores[v], wantB[v])
		}
	}
	if mCacheCollisions.Value() == collisionsBefore {
		t.Fatal("collision not counted")
	}
}

func TestDeltaIDDeterministicAndDistinct(t *testing.T) {
	a := deltaID("base", []int32{1, 2})
	if a != deltaID("base", []int32{1, 2}) {
		t.Fatal("deltaID not deterministic")
	}
	for _, other := range []string{
		deltaID("base", []int32{2, 1}),
		deltaID("base", []int32{1}),
		deltaID("other", []int32{1, 2}),
		"base",
	} {
		if a == other {
			t.Fatalf("deltaID collision with %q", other)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	stub := &stubPredictor{}
	s, ts := newTestServer(t, Options{Predictor: stub, CacheEntries: -1})
	var resp ScoreResponse
	postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &resp)
	if s.CachedDesigns() != 0 {
		t.Fatal("disabled cache stored a design")
	}
	// Every id is unknown to the delta path.
	body, _ := json.Marshal(DeltaRequest{Design: resp.Design, Observe: []int32{2}})
	hresp, err := http.Post(ts.URL+"/v1/score/delta", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != 404 {
		t.Fatalf("delta on uncached design: status %d", hresp.StatusCode)
	}
}

// TestDeltaRacesEvictionOfItsDesign chains deltas on one design while
// another client submits fresh designs into a one-entry cache, so the
// chained design is evicted at every point of a delta. Every delta must
// answer 200 with a parsable body whose node count continues the chain,
// or 404 once its design is gone; never a 500 or a panic (and, under
// -race, never a data race).
func TestDeltaRacesEvictionOfItsDesign(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}, CacheEntries: 1})
	text := benchText(t, circuitgen.Generate("race", circuitgen.Config{Seed: 2, NumGates: 200}))
	n, _, _ := compileForTest(t, text)
	var targets []int32
	for v := int32(0); v < int32(n.NumGates()); v++ {
		if typ := n.Type(v); typ != netlist.Input && typ != netlist.Output {
			targets = append(targets, v)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 120; i++ {
			body, _ := json.Marshal(ScoreRequest{Netlist: fmt.Sprintf("# fresh %d\n%s", i, tinyBench)})
			resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("fresh design %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("fresh design %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	id, nodes, ok200, ok404 := "", 0, 0, 0
	for i := 0; i < 120; i++ {
		if id == "" {
			var r ScoreResponse
			if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: text}, &r); code != 200 {
				t.Fatalf("rescore: status %d", code)
			}
			id, nodes = r.Design, r.Nodes
		}
		observe := []int32{targets[i%len(targets)], targets[(7*i+3)%len(targets)]}
		code, body := postRaw(t, ts.URL+"/v1/score/delta", DeltaRequest{Design: id, Observe: observe})
		switch code {
		case 200:
			var r ScoreResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("delta %d: unparsable 200 body: %v", i, err)
			}
			if nodes += len(observe); r.Nodes != nodes || len(r.Scores) != nodes {
				t.Fatalf("delta %d: nodes %d, %d scores, want %d", i, r.Nodes, len(r.Scores), nodes)
			}
			id = r.Design
			ok200++
		case 404:
			id = ""
			ok404++
		default:
			t.Fatalf("delta %d: status %d, body %s", i, code, body)
		}
	}
	<-done
	t.Logf("%d deltas answered 200, %d answered 404", ok200, ok404)
}
