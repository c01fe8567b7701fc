package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// fuzzMaxBody is FuzzScoreRequest's body cap: small, so the fuzzer
// reaches the 413 path as well as the decode and parse paths.
const fuzzMaxBody = 4 << 10

// FuzzScoreRequest drives POST /v1/score with raw request bodies through
// JSON decode under the body cap, netlist parse, compile and scoring on
// a small real model. No body may panic the handler. Every answer is
// 200, 400 or 413 (or 504 when the body itself asked for a shorter
// deadline) with a well-formed JSON body; a 200 carries one score in
// [0, 1] per node.
func FuzzScoreRequest(f *testing.F) {
	for _, text := range append(netlistParseCorpus(f), tinyBench, otherBench, thirdBench) {
		body, err := json.Marshal(ScoreRequest{Netlist: text})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	for _, body := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`"INPUT(a)"`,
		`{"netlist": 5}`,
		`{"netlist": ""}`,
		`{"netlist": "# only a comment\n"}`,
		`{"netlist": "a = AND(b, c)\n"}`,
		`{"netlist": "INPUT(a)\nOUTPUT(a)\n", "threshold": -1}`,
		`{"netlist": "INPUT(a)\nb = NOT(a)\nOUTPUT(b)\n", "timeout_ms": 9223372036854775807}`,
		`{"netlist": "INPUT(a)\nOUTPUT(a)\n"} trailing`,
		`{"netlist": "` + strings.Repeat("#", fuzzMaxBody) + `"}`,
	} {
		f.Add(body)
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body)))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d with Content-Type %q", rec.Code, ct)
		}
		if rec.Code == http.StatusOK {
			var resp ScoreResponse
			mustDecode(t, rec, &resp)
			if len(resp.Scores) != resp.Nodes {
				t.Fatalf("200 with %d scores for %d nodes", len(resp.Scores), resp.Nodes)
			}
			for v, s := range resp.Scores {
				if !(s >= 0 && s <= 1) {
					t.Fatalf("node %d scored %v", v, s)
				}
			}
			return
		}
		want := map[int]string{
			http.StatusBadRequest:            ErrInvalidRequest,
			http.StatusRequestEntityTooLarge: ErrTooLarge,
		}
		var req ScoreRequest
		if json.NewDecoder(strings.NewReader(body)).Decode(&req) == nil && shortensDeadline(req.TimeoutMs) {
			want[http.StatusGatewayTimeout] = ErrDeadlineExceeded
		}
		category, ok := want[rec.Code]
		if !ok {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp ErrorResponse
		mustDecode(t, rec, &resp)
		if resp.Error.Category != category || resp.Error.Message == "" {
			t.Fatalf("status %d with envelope %+v, want category %q and a message", rec.Code, resp.Error, category)
		}
	})
}

// fuzzServer is the server every request fuzz target drives: a small
// real model under the fuzzMaxBody cap, caching one design.
func fuzzServer(f *testing.F) http.Handler {
	srv, err := New(Options{
		Predictor:    core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 1}),
		CacheEntries: 1,
		MaxBodyBytes: fuzzMaxBody,
	})
	if err != nil {
		f.Fatal(err)
	}
	return srv.Handler()
}

// rescoreTiny scores tinyBench (ids a=0, b=1, g1=2, g2=3, output 4) on
// h and requires its content-hash design id, the id the seeds carry.
// Deltas rekey the design they edit, so re-scoring before every input
// gives each input the same fresh, cached design under that id.
func rescoreTiny(t *testing.T, h http.Handler) {
	body, err := json.Marshal(ScoreRequest{Netlist: tinyBench})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("re-scoring tinyBench: status %d: %s", rec.Code, rec.Body)
	}
	var resp ScoreResponse
	mustDecode(t, rec, &resp)
	if want := contentHash([]byte(tinyBench)); resp.Design != want {
		t.Fatalf("tinyBench scored as design %q, want its content hash %q", resp.Design, want)
	}
}

// shortensDeadline reports whether a request's timeout_ms shortens the
// default deadline. A larger value leaves the default in force, which no
// fuzzed design comes near, so only a shortened deadline may answer 504.
func shortensDeadline(timeoutMs int64) bool {
	return timeoutMs > 0 && timeoutMs < (Options{}).withDefaults().DefaultTimeout.Milliseconds()
}

// checkFailure requires a non-200 answer to be 400, 404 or 413 with the
// matching error category, or 504 when timeoutMs shortened the deadline.
func checkFailure(t *testing.T, rec *httptest.ResponseRecorder, timeoutMs int64) {
	t.Helper()
	want := map[int]string{
		http.StatusBadRequest:            ErrInvalidRequest,
		http.StatusNotFound:              ErrNotFound,
		http.StatusRequestEntityTooLarge: ErrTooLarge,
	}
	if shortensDeadline(timeoutMs) {
		want[http.StatusGatewayTimeout] = ErrDeadlineExceeded
	}
	category, ok := want[rec.Code]
	if !ok {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ErrorResponse
	mustDecode(t, rec, &resp)
	if resp.Error.Category != category || resp.Error.Message == "" {
		t.Fatalf("status %d with envelope %+v, want category %q and a message", rec.Code, resp.Error, category)
	}
}

// FuzzDeltaRequest drives POST /v1/score/delta with raw request bodies
// against a freshly scored tinyBench, whose content-hash id the seeds
// carry literally so they reach the insertion path. No body may panic
// the handler. A 200 carries one score in [0, 1] per node, and the node
// count grows by exactly the inserted observation points; every other
// answer is a well-formed error envelope (see checkFailure).
func FuzzDeltaRequest(f *testing.F) {
	id := contentHash([]byte(tinyBench))
	for _, body := range []string{
		`{"design": "` + id + `", "observe": [2]}`,
		`{"design": "` + id + `", "observe": [3, 2]}`,
		`{"design": "` + id + `", "observe": [2, 2, 2]}`,
		`{"design": "` + id + `", "observe_names": ["g1"]}`,
		`{"design": "` + id + `", "observe": [3], "observe_names": ["g1", "g2"]}`,
		`{"design": "` + id + `", "observe": [2], "threshold": 1e-9}`,
		`{"design": "` + id + `", "observe": [2], "threshold": 1e308}`,
		`{"design": "` + id + `", "observe": [2], "threshold": -1}`,
		`{"design": "` + id + `", "observe": [2], "timeout_ms": 1}`,
		`{"design": "` + id + `", "observe": [2], "timeout_ms": -5}`,
		`{"design": "` + id + `", "observe": [2], "timeout_ms": 9223372036854775807}`,
		`{"design": "` + id + `", "observe": [5]}`,
		`{"design": "` + id + `", "observe": [2147483647]}`,
		`{"design": "` + id + `", "observe": [-1]}`,
		`{"design": "` + id + `", "observe": [0]}`,
		`{"design": "` + id + `", "observe": [4]}`,
		`{"design": "` + id + `", "observe": [2, 4]}`,
		`{"design": "` + id + `", "observe_names": ["a"]}`,
		`{"design": "` + id + `", "observe_names": ["nope"]}`,
		`{"design": "` + id + `", "observe_names": [""]}`,
		`{"design": "` + id + `"}`,
		`{"design": "` + id + `", "observe": []}`,
		`{"design": "` + id + `", "observe": [3000000000]}`,
		`{"design": "` + id + `", "observe": [1.5]}`,
		`{"design": "` + id + `", "observe": "2"}`,
		`{"design": "unknown", "observe": [2]}`,
		`{"design": "", "observe": [2]}`,
		`{"observe": [2]}`,
		`{"design": 5}`,
		``,
		`{`,
		`null`,
		`[]`,
		`{"design": "` + id + `", "observe": [2]} trailing`,
		`{"design": "` + id + `", "observe_names": ["` + strings.Repeat("g", fuzzMaxBody) + `"]}`,
	} {
		f.Add(body)
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		rescoreTiny(t, h)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score/delta", strings.NewReader(body)))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d with Content-Type %q", rec.Code, ct)
		}
		var req DeltaRequest
		_ = json.NewDecoder(strings.NewReader(body)).Decode(&req)
		if rec.Code != http.StatusOK {
			checkFailure(t, rec, req.TimeoutMs)
			return
		}
		var resp ScoreResponse
		mustDecode(t, rec, &resp)
		const base = 5 // tinyBench's cells
		if len(resp.Scores) != resp.Nodes || resp.Nodes != base+len(resp.Inserted) {
			t.Fatalf("200 with %d scores, %d nodes and %d insertions on a %d-cell design",
				len(resp.Scores), resp.Nodes, len(resp.Inserted), base)
		}
		for v, s := range resp.Scores {
			if !(s >= 0 && s <= 1) {
				t.Fatalf("node %d scored %v", v, s)
			}
		}
	})
}

// FuzzOPIRequest drives POST /v1/opi with raw request bodies, by inline
// netlist or by the id of a freshly scored tinyBench. No body may panic
// the handler. A 200 suggests at most max_points points (64 when unset),
// every one scored in [0, 1], and carries coverage exactly when the body
// asked to evaluate; every other answer is a well-formed error envelope
// (see checkFailure).
func FuzzOPIRequest(f *testing.F) {
	id := contentHash([]byte(tinyBench))
	quote := func(text string) string {
		b, err := json.Marshal(text)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	for _, body := range []string{
		`{"design": "` + id + `"}`,
		`{"design": "` + id + `", "threshold": 1e-9}`,
		`{"design": "` + id + `", "threshold": 1e-9, "max_points": 1}`,
		`{"design": "` + id + `", "threshold": 1e-9, "per_iteration": 1, "max_points": 2}`,
		`{"design": "` + id + `", "threshold": 1e-9, "evaluate": true, "patterns": 64}`,
		`{"design": "` + id + `", "evaluate": true, "patterns": -1}`,
		`{"design": "` + id + `", "evaluate": true, "patterns": 1099511627776}`,
		`{"design": "` + id + `", "max_points": -1, "threshold": 1e-9}`,
		`{"design": "` + id + `", "max_points": 9223372036854775807, "threshold": 1e-9}`,
		`{"design": "` + id + `", "per_iteration": -3, "threshold": 1e-9}`,
		`{"design": "` + id + `", "per_iteration": 9223372036854775807, "threshold": 1e-9}`,
		`{"design": "` + id + `", "threshold": -1}`,
		`{"design": "` + id + `", "threshold": 1e308}`,
		`{"design": "` + id + `", "timeout_ms": 1, "evaluate": true}`,
		`{"design": "` + id + `", "timeout_ms": 9223372036854775807, "evaluate": true, "patterns": 9223372036854775807}`,
		`{"design": "unknown"}`,
		`{"netlist": ` + quote(tinyBench) + `, "design": "` + id + `"}`,
		`{"netlist": ` + quote(otherBench) + `, "threshold": 1e-9, "evaluate": true}`,
		`{"netlist": ` + quote(thirdBench) + `, "max_points": 1}`,
		`{"netlist": "a = AND(b)
"}`,
		`{"netlist": "# only a comment
"}`,
		`{}`,
		`{"max_points": 1.5, "design": "` + id + `"}`,
		`{"evaluate": "yes", "design": "` + id + `"}`,
		``,
		`{`,
		`null`,
		`[]`,
		`{"design": "` + id + `"} trailing`,
		`{"netlist": "` + strings.Repeat("#", fuzzMaxBody) + `"}`,
	} {
		f.Add(body)
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		rescoreTiny(t, h)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/opi", strings.NewReader(body)))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d with Content-Type %q", rec.Code, ct)
		}
		var req OPIRequest
		_ = json.NewDecoder(strings.NewReader(body)).Decode(&req)
		if rec.Code != http.StatusOK {
			checkFailure(t, rec, req.TimeoutMs)
			return
		}
		var resp OPIResponse
		mustDecode(t, rec, &resp)
		maxPoints := req.MaxPoints
		if maxPoints <= 0 {
			maxPoints = 64
		}
		if len(resp.Points) > maxPoints {
			t.Fatalf("200 with %d points, max_points %d", len(resp.Points), maxPoints)
		}
		for _, p := range resp.Points {
			if !(p.Score >= 0 && p.Score <= 1) {
				t.Fatalf("point %d scored %v", p.ID, p.Score)
			}
		}
		if (resp.CoverageBefore != nil) != req.Evaluate || (resp.CoverageAfter != nil) != req.Evaluate {
			t.Fatalf("evaluate %v but coverage before %v, after %v",
				req.Evaluate, resp.CoverageBefore, resp.CoverageAfter)
		}
	})
}

// mustDecode decodes the recorded body into v, rejecting unknown fields
// and trailing data.
func mustDecode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil || dec.More() {
		t.Fatalf("status %d: malformed body (%v): %s", rec.Code, err, rec.Body)
	}
}

// netlistParseCorpus returns the netlists of internal/netlist's committed
// FuzzNetlistParse corpus.
func netlistParseCorpus(f *testing.F) []string {
	paths, err := filepath.Glob("../netlist/testdata/fuzz/FuzzNetlistParse/*")
	if err != nil || len(paths) == 0 {
		f.Fatalf("FuzzNetlistParse corpus not found (%v)", err)
	}
	var out []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\nstring(")
		if !ok || !strings.HasSuffix(lit, ")") {
			f.Fatalf("%s: not a single-string corpus entry", p)
		}
		text, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		out = append(out, text)
	}
	return out
}
