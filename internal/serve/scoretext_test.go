package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/netlist"
)

// encoderBytes is the reference for every response the score writer
// produces: what json.NewEncoder(w).Encode(resp) writes.
func encoderBytes(t testing.TB, resp ScoreResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postRaw posts a JSON body and returns the status and the raw response
// bytes.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// benchText renders a netlist as .bench text.
func benchText(t *testing.T, n *netlist.Netlist) string {
	t.Helper()
	var buf bytes.Buffer
	if err := netlist.Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestScoreResponseBytesMatchEncoder serves /v1/score and then a chain of
// random deltas on circuitgen designs, and compares every response body
// byte for byte with json.Encoder's encoding of the response a library
// replay of the same edits predicts.
func TestScoreResponseBytesMatchEncoder(t *testing.T) {
	for _, seed := range []int64{3, 8} {
		_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
		text := benchText(t, circuitgen.Generate("bytes", circuitgen.Config{Seed: seed, NumGates: 300}))
		n, meas, g := compileForTest(t, text)
		const thr = 0.6
		want := func(id string, cached bool, updated int, inserted []int32) ScoreResponse {
			probs := (&stubPredictor{}).PredictProbs(g)
			r := ScoreResponse{Design: id, Nodes: n.NumGates(), Scores: probs,
				Difficult: difficultList(n, probs, thr), Cached: cached, Updated: updated}
			for _, v := range inserted {
				r.Inserted = append(r.Inserted, NodeScore{ID: v, Name: n.Gate(v).Name, Score: probs[v]})
			}
			return r
		}

		id := contentHash([]byte(text))
		for _, cached := range []bool{false, true} {
			code, got := postRaw(t, ts.URL+"/v1/score", ScoreRequest{Netlist: text, Threshold: thr})
			if exp := encoderBytes(t, want(id, cached, 0, nil)); code != 200 || !bytes.Equal(got, exp) {
				t.Fatalf("seed %d /v1/score (cached %v): status %d, bytes differ from encoding/json:\n%.300s\n%.300s", seed, cached, code, got, exp)
			}
		}

		rng := rand.New(rand.NewSource(seed))
		var cands []int32
		for v := int32(0); v < int32(n.NumGates()); v++ {
			if insertable := n.Type(v) != netlist.Input && n.Type(v) != netlist.Output; insertable {
				cands = append(cands, v)
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for k := 0; k < 60; k++ {
			targets := cands[:1+rng.Intn(3)]
			cands = cands[len(targets):]
			updated := 0
			for _, v := range targets {
				_, touched, err := insertForTest(n, meas, g, v)
				if err != nil {
					t.Fatal(err)
				}
				updated += len(touched)
			}
			next := deltaID(id, targets)
			code, got := postRaw(t, ts.URL+"/v1/score/delta", DeltaRequest{Design: id, Observe: targets, Threshold: thr})
			if exp := encoderBytes(t, want(next, true, updated, targets)); code != 200 || !bytes.Equal(got, exp) {
				t.Fatalf("seed %d delta %d: status %d, bytes differ from encoding/json:\n%.300s\n%.300s", seed, k, code, got, exp)
			}
			id = next
		}
	}
}

// escapeBench names its cells with characters encoding/json escapes.
const escapeBench = "# escapes\nINPUT(<a>)\nINPUT(b&c)\nq\"x = NAND(<a>, b&c)\nu\u2028v = AND(q\"x, b&c)\nOUTPUT(u\u2028v)\n"

// TestScoreResponseBytesEscapedNames serves a design whose cell names
// need escaping, all of them in the difficult list, a design with no
// cells, and a delta by name, and compares every body byte for byte with
// json.Encoder's encoding.
func TestScoreResponseBytesEscapedNames(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: &stubPredictor{}})
	n, meas, g := compileForTest(t, escapeBench)
	const thr = 1e-9
	probs := (&stubPredictor{}).PredictProbs(g)
	id := contentHash([]byte(escapeBench))
	want := ScoreResponse{Design: id, Nodes: n.NumGates(), Scores: probs, Difficult: difficultList(n, probs, thr)}
	if len(want.Difficult) < 4 {
		t.Fatalf("only %d cells in the difficult list", len(want.Difficult))
	}
	code, got := postRaw(t, ts.URL+"/v1/score", ScoreRequest{Netlist: escapeBench, Threshold: thr})
	if exp := encoderBytes(t, want); code != 200 || !bytes.Equal(got, exp) {
		t.Fatalf("/v1/score: status %d\n got %s\nwant %s", code, got, exp)
	}
	// A netlist with no cells still encodes its scores as null.
	const empty = "# empty\n"
	code, got = postRaw(t, ts.URL+"/v1/score", ScoreRequest{Netlist: empty})
	if exp := encoderBytes(t, ScoreResponse{Design: contentHash([]byte(empty)), Difficult: []NodeScore{}}); code != 200 || !bytes.Equal(got, exp) {
		t.Fatalf("zero-cell /v1/score: status %d\n got %s\nwant %s", code, got, exp)
	}
	target, _ := n.IDByName("q\"x")
	_, touched, err := insertForTest(n, meas, g, target)
	if err != nil {
		t.Fatal(err)
	}
	probs = (&stubPredictor{}).PredictProbs(g)
	want = ScoreResponse{Design: deltaID(id, []int32{target}), Nodes: n.NumGates(), Scores: probs,
		Difficult: difficultList(n, probs, thr), Cached: true, Updated: len(touched),
		Inserted: []NodeScore{{ID: target, Name: "q\"x", Score: probs[target]}}}
	code, got = postRaw(t, ts.URL+"/v1/score/delta", DeltaRequest{Design: id, ObserveNames: []string{"q\"x"}, Threshold: thr})
	if exp := encoderBytes(t, want); code != 200 || !bytes.Equal(got, exp) {
		t.Fatalf("delta: status %d\n got %s\nwant %s", code, got, exp)
	}
}

// TestScoreWriterEdgeCases compares the writer with json.Encoder on the
// responses that exercise its special paths: the zero-cell design
// (scores null), names that need escaping or are not valid UTF-8, and
// scores that encode in exponent form or exactly as 0 and 1. Each runs
// without kept text, and then as a delta whose kept text holds other
// scores, so both the formatted and the copied rows are checked.
func TestScoreWriterEdgeCases(t *testing.T) {
	names := []string{"<script>", "a&b", `q"uote`, "line\u2028sep", "bad\xffutf8", "plain"}
	edge := []float64{0, 1, 1e-7, 9.999999e-7, 1e-6, 5e-324, 2.5e-300, 0.1, 1.0 / 3, 1e20, 1e21, -0.0, 0.5}
	cases := map[string][]float64{"zero-cell": nil, "edge": edge}
	for name, probs := range cases {
		resp := ScoreResponse{Design: "d<&> ", Nodes: len(probs), Difficult: []NodeScore{},
			Cached: true, Updated: 3}
		for i, nm := range names {
			resp.Difficult = append(resp.Difficult, NodeScore{ID: int32(i), Name: nm, Score: 0.75})
		}
		resp.Inserted = resp.Difficult[:2]
		wantResp := resp
		wantResp.Scores = probs
		want := encoderBytes(t, wantResp)

		got, _, _, err := appendScoreResponse(nil, &resp, probs, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: err %v\n got %s\nwant %s", name, err, got, want)
		}
		var kept scoreText
		other := make([]float64, len(probs))
		for i := range other {
			other[i] = float64(i) / 7
		}
		if _, err := kept.encode(&resp, other); err != nil {
			t.Fatal(err)
		}
		if got, err := kept.encode(&resp, probs); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s with kept text: err %v\n got %s\nwant %s", name, err, got, want)
		}
	}
}

// TestKeptTextCopiesUnchangedRows checks the kept text across growing,
// partly changing score vectors, including runs of unchanged rows at the
// start, middle and end and rows appended after them.
func TestKeptTextCopiesUnchangedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var kept scoreText
	probs := make([]float64, 50)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	resp := ScoreResponse{Design: "d", Difficult: []NodeScore{}}
	for step := 0; step < 200; step++ {
		for k := rng.Intn(6); k > 0; k-- {
			probs[rng.Intn(len(probs))] = math.Pow(rng.Float64(), 12)
		}
		for k := rng.Intn(3); k > 0; k-- {
			probs = append(probs, rng.Float64())
		}
		resp.Nodes = len(probs)
		want := encoderBytes(t, ScoreResponse{Design: "d", Nodes: len(probs), Scores: probs, Difficult: []NodeScore{}})
		if got, err := kept.encode(&resp, probs); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("step %d: err %v\n got %s\nwant %s", step, err, got, want)
		}
	}
}

// FuzzScoreText checks the float writer against json.Marshal over raw
// float64 bits, and a kept text updated from one vector of those values
// to another against json.Marshal of the second. Non-finite values are
// skipped: encoding/json rejects them and so does the writer.
func FuzzScoreText(f *testing.F) {
	for _, v := range []float64{0, 1, 1e-7, 1e-6, 1e21, 1e20, 5e-324, math.MaxFloat64, -0.0, 0.1} {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v/3))
		f.Add(b, uint8(0x55))
	}
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			want, err := json.Marshal(x)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFloat(nil, x); !bytes.Equal(got, want) {
				t.Fatalf("%016x: wrote %s, encoding/json %s", math.Float64bits(x), got, want)
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return
		}
		// The first vector is xs; the second rewrites the rows the mask
		// selects (cyclically) and appends one more row.
		next := append([]float64(nil), xs...)
		for i := range next {
			if mask>>(i%8)&1 == 1 {
				next[i] = xs[len(xs)-1-i]
			}
		}
		next = append(next, xs[0])
		var kept scoreText
		for _, v := range [][]float64{xs, next} {
			got, err := appendScores(nil, v, &kept)
			want, _ := json.Marshal(v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("array: err %v\n got %s\nwant %s", err, got, want)
			}
			kept.text = got
		}
	})
}

// nanPredictor scores every cell NaN through PredictProbs, and through
// its incremental sessions scores even cells NaN and odd cells 0.9, so
// the opi flow still selects points (at odd cells) whose pre-flow scores
// are NaN.
type nanPredictor struct{}

func (nanPredictor) PredictProbs(g *core.Graph) []float64 {
	out := make([]float64, g.N)
	for v := range out {
		out[v] = math.NaN()
	}
	return out
}

func (p nanPredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	r := &nanRun{}
	r.Update(g, nil)
	return r
}

type nanRun struct{ probs []float64 }

func (r *nanRun) Probs() []float64 { return r.probs }

func (r *nanRun) Update(g *core.Graph, _ []int32) {
	r.probs = make([]float64, g.N)
	for v := range r.probs {
		r.probs[v] = 0.9
		if v%2 == 0 {
			r.probs[v] = math.NaN()
		}
	}
}

// TestNonFiniteScoresAnswer500 sends every score endpoint a design its
// predictor scores NaN: each must answer 500 with the internal category
// and a message naming the cause, never a 200 with an empty body.
func TestNonFiniteScoresAnswer500(t *testing.T) {
	_, ts := newTestServer(t, Options{Predictor: nanPredictor{}})
	check := func(what string, code int, body []byte) {
		t.Helper()
		var e ErrorResponse
		if code != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil ||
			e.Error.Category != ErrInternal || !strings.Contains(e.Error.Message, "NaN") {
			t.Fatalf("%s: status %d, body %q", what, code, body)
		}
	}
	code, body := postRaw(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench})
	check("score", code, body)
	// The design was compiled and cached before its response failed.
	code, body = postRaw(t, ts.URL+"/v1/score/delta", DeltaRequest{Design: contentHash([]byte(tinyBench)), Observe: []int32{2}})
	check("delta", code, body)
	code, body = postRaw(t, ts.URL+"/v1/opi", OPIRequest{Netlist: otherBench})
	check("opi", code, body)
}
