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
		`{"netlist": "INPUT(a)\nOUTPUT(a)\n"} trailing`,
		`{"netlist": "` + strings.Repeat("#", fuzzMaxBody) + `"}`,
	} {
		f.Add(body)
	}
	srv, err := New(Options{
		Predictor:    core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 1}),
		CacheEntries: 1,
		MaxBodyBytes: fuzzMaxBody,
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
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
		if json.NewDecoder(strings.NewReader(body)).Decode(&req) == nil && req.TimeoutMs > 0 {
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
