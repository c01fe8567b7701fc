package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/refcheck"
)

// TestFloat32ScoringFlow pins the Float32Scoring contract end to end:
// /v1/score answers from the f32 forward pass within refcheck.F32Tolerance
// of the float64 path, and the first /v1/score/delta lazily builds the
// float64 incremental session and matches a pure-f64 server bit for bit
// from then on.
func TestFloat32ScoringFlow(t *testing.T) {
	base := core.MustNewModel(core.DefaultConfig())
	_, ts32 := newTestServer(t, Options{Predictor: base, Float32Scoring: true})
	_, ts64 := newTestServer(t, Options{Predictor: base.Clone()})

	var r32, r64 ScoreResponse
	if code := postJSON(t, ts32.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &r32); code != 200 {
		t.Fatalf("f32 score status %d", code)
	}
	if code := postJSON(t, ts64.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &r64); code != 200 {
		t.Fatalf("f64 score status %d", code)
	}
	if len(r32.Scores) != len(r64.Scores) || len(r32.Scores) == 0 {
		t.Fatalf("score lengths: f32=%d f64=%d", len(r32.Scores), len(r64.Scores))
	}
	for v := range r64.Scores {
		if d := math.Abs(r32.Scores[v] - r64.Scores[v]); d > refcheck.F32Tolerance {
			t.Errorf("node %d: f32 score %g vs f64 %g (off by %g)", v, r32.Scores[v], r64.Scores[v], d)
		}
	}

	// First delta: the f32 design has no incremental session yet; the
	// handler must build one lazily and keep serving. Both servers then
	// hold exact float64 sessions over the same mutated graph, so their
	// scores agree bit for bit.
	var d32, d64 ScoreResponse
	if code := postJSON(t, ts32.URL+"/v1/score/delta",
		DeltaRequest{Design: r32.Design, Observe: []int32{2}}, &d32); code != 200 {
		t.Fatalf("f32 delta status %d", code)
	}
	if code := postJSON(t, ts64.URL+"/v1/score/delta",
		DeltaRequest{Design: r64.Design, Observe: []int32{2}}, &d64); code != 200 {
		t.Fatalf("f64 delta status %d", code)
	}
	if d32.Nodes != d64.Nodes || len(d32.Scores) != len(d64.Scores) {
		t.Fatalf("post-delta shapes: f32 %d/%d, f64 %d/%d", d32.Nodes, len(d32.Scores), d64.Nodes, len(d64.Scores))
	}
	for v := range d64.Scores {
		if d32.Scores[v] != d64.Scores[v] {
			t.Errorf("node %d: post-delta f32-server score %g != f64-server %g", v, d32.Scores[v], d64.Scores[v])
		}
	}
}

// TestFloat32SecondDeltaAllocatesLikeFloat64 chains two deltas on a
// ~2,000-gate design, on a Float32Scoring server and on a float64 one.
// The float32 design opens its session on its first delta, and its
// second delta may allocate at most twice what the float64 server's
// does: a session sized to the edited graph exactly would copy every
// embedding matrix to grow on the second delta.
func TestFloat32SecondDeltaAllocatesLikeFloat64(t *testing.T) {
	n := circuitgen.Generate("grow", circuitgen.Config{Seed: 61, NumGates: 2000})
	text := benchText(t, n)
	var targets []int32
	for id := int32(0); len(targets) < 2; id++ {
		if k := n.Gate(id).Type; k != netlist.Input && k != netlist.Output && k != netlist.Obs {
			targets = append(targets, id)
		}
	}
	base := core.MustNewModel(core.DefaultConfig())
	secondDelta := func(opts Options) uint64 {
		_, ts := newTestServer(t, opts)
		var resp ScoreResponse
		if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: text}, &resp); code != 200 {
			t.Fatalf("score status %d", code)
		}
		if code := postJSON(t, ts.URL+"/v1/score/delta", DeltaRequest{Design: resp.Design, Observe: targets[:1]}, &resp); code != 200 {
			t.Fatalf("first delta status %d", code)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if code := postJSON(t, ts.URL+"/v1/score/delta", DeltaRequest{Design: resp.Design, Observe: targets[1:]}, &resp); code != 200 {
			t.Fatalf("second delta status %d", code)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	f64 := secondDelta(Options{Predictor: base})
	f32 := secondDelta(Options{Predictor: base, Float32Scoring: true})
	if f32 > 2*f64 {
		t.Errorf("second delta allocated %d B on the float32 server, more than twice the float64 server's %d B", f32, f64)
	}
}

// TestFloat32ScoringFallback proves the option degrades gracefully when
// the predictor has no float32 scoring call (PredictProbs32): scoring
// runs the ordinary float64 path unchanged.
func TestFloat32ScoringFallback(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}, Float32Scoring: true})
	var resp ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	want := expectedScores(t, tinyBench)
	for v := range want {
		if resp.Scores[v] != want[v] {
			t.Fatalf("node %d: score %g, want %g", v, resp.Scores[v], want[v])
		}
	}
}

// TestConcurrentFloat32ScoringRace hammers the shared scratch — the
// retained tensor.Scratch set, the inference tile sets and sparse's
// dedup/conversion scratch — from concurrent f32 score requests.
// Caching and batching are disabled so every request pays a full
// compile and forward pass through it; the race detector is the
// assertion.
func TestConcurrentFloat32ScoringRace(t *testing.T) {
	pred := core.MustNewModel(core.DefaultConfig())
	_, ts := newTestServer(t, Options{
		Predictor:       pred,
		Float32Scoring:  true,
		DisableBatching: true,
		CacheEntries:    -1,
		MaxConcurrent:   8,
	})

	benches := []string{tinyBench, otherBench, thirdBench}
	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				body, _ := json.Marshal(ScoreRequest{Netlist: benches[(id+k)%len(benches)]})
				httpResp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", id, k, err)
					return
				}
				var resp ScoreResponse
				err = json.NewDecoder(httpResp.Body).Decode(&resp)
				httpResp.Body.Close()
				if err != nil || httpResp.StatusCode != 200 {
					errs <- fmt.Errorf("goroutine %d iter %d: status %d, decode err %v", id, k, httpResp.StatusCode, err)
					return
				}
				if len(resp.Scores) != resp.Nodes || resp.Nodes == 0 {
					errs <- fmt.Errorf("goroutine %d iter %d: %d scores for %d nodes", id, k, len(resp.Scores), resp.Nodes)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
