package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opi"
	"repro/internal/scoap"
)

func TestMain(m *testing.M) {
	// Serve metrics are part of the behavior under test (coalescing and
	// collision counters); they are no-ops unless instrumentation is on.
	obs.Enable()
	os.Exit(m.Run())
}

// tinyBench is a 5-cell design used across the handler tests:
// ids a=0, b=1, g1=2, g2=3, output sink=4.
const tinyBench = `# tiny
INPUT(a)
INPUT(b)
g1 = NAND(a, b)
g2 = AND(g1, b)
OUTPUT(g2)
`

// otherBench differs from tinyBench in structure, for cache-collision
// and eviction tests.
const otherBench = `# other
INPUT(p)
INPUT(q)
h1 = OR(p, q)
h2 = XOR(h1, p)
OUTPUT(h2)
`

const thirdBench = `# third
INPUT(x)
h = NOT(x)
OUTPUT(h)
`

// stubScore is the deterministic per-node score of the stub predictor:
// a hash-like function of the node's attribute row, so scores move when
// attributes change (observation points lower observability) and new
// nodes get scores of their own.
func stubScore(g *core.Graph, v int) float64 {
	row := g.X.Row(v)
	s := float64(v) * 0.0137
	for j, x := range row {
		s += x * (0.11*float64(j) + 0.07)
	}
	return math.Mod(s, 1)
}

// stubPredictor is a fast, deterministic IncrementalPredictor for
// handler tests. It is safe for concurrent use, as Options.Predictor
// must be. forwards counts NewIncremental calls — the "expensive full
// forward" the batcher and cache exist to avoid — and predicts counts
// PredictProbs calls.
type stubPredictor struct {
	forwards atomic.Int64
	predicts atomic.Int64
	started  chan struct{} // if non-nil, receives one value per forward entry
	release  chan struct{} // if non-nil, forwards block until closed
}

func (p *stubPredictor) PredictProbs(g *core.Graph) []float64 {
	p.predicts.Add(1)
	return stubProbs(g)
}

// stubProbs is stubScore for every node of g.
func stubProbs(g *core.Graph) []float64 {
	out := make([]float64, g.N)
	for v := range out {
		out[v] = stubScore(g, v)
	}
	return out
}

func (p *stubPredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	p.forwards.Add(1)
	if p.started != nil {
		p.started <- struct{}{}
	}
	if p.release != nil {
		<-p.release
	}
	return &stubRun{probs: stubProbs(g)}
}

type stubRun struct{ probs []float64 }

func (r *stubRun) Probs() []float64 { return r.probs }

func (r *stubRun) Update(g *core.Graph, dirty []int32) { r.probs = stubProbs(g) }

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts a JSON body and returns status plus decoded response.
func postJSON(t *testing.T, url string, body any, out any) int {
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
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %q: %v", strings.TrimSpace(string(data)), err)
		}
	}
	return resp.StatusCode
}

// expectedScores computes what the stub predictor should return for a
// netlist by running the same compile pipeline directly.
func expectedScores(t *testing.T, benchText string) []float64 {
	t.Helper()
	n, err := netlist.Read(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromNetlist(n, scoap.Compute(n))
	return (&stubPredictor{}).PredictProbs(g)
}

// compileForTest runs the compile pipeline on netlist text.
func compileForTest(t *testing.T, benchText string) (*netlist.Netlist, *scoap.Measures, *core.Graph) {
	t.Helper()
	n, err := netlist.Read(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	meas := scoap.Compute(n)
	return n, meas, core.FromNetlist(n, meas)
}

// insertForTest applies one observation point with the same incremental
// recipe the delta handler uses.
func insertForTest(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, target int32) (int32, []int32, error) {
	lv := append([]int32(nil), n.Levels()...)
	return opi.InsertAndRefresh(n, meas, g, target, lv)
}

// errCategory extracts the error envelope category from a raw response.
func errCategory(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return e.Error.Category
}
