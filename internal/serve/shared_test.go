package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opi"
	"repro/internal/scoap"
)

// TestSharedPredictorMixedTraffic sends concurrent /v1/score requests on
// distinct designs, delta chains and /v1/opi requests to one server, all
// scoring with the one predictor the server was given, and checks every
// answer against the library's single-threaded answer. check.sh runs it
// under -race, where it is the guard that inference writes nothing that
// requests share.
func TestSharedPredictorMixedTraffic(t *testing.T) {
	t.Run("Model", func(t *testing.T) {
		m := core.MustNewModel(core.DefaultConfig())
		checkMixedTraffic(t, m, func() core.IncrementalPredictor { return m.Clone() }, false)
	})
	t.Run("MultiStageFloat32", func(t *testing.T) {
		cfg := core.DefaultConfig()
		ms := &core.MultiStage{FilterBelow: 0.25}
		for s := int64(0); s < 3; s++ {
			cfg.Seed = 60 + s
			ms.Stages = append(ms.Stages, core.MustNewModel(cfg))
		}
		checkMixedTraffic(t, ms, func() core.IncrementalPredictor { return ms.Clone() }, true)
	})
}

// mixedDesign is one design of the mixed traffic and its library
// answers, computed single-threaded before any request is sent.
type mixedDesign struct {
	text   string
	scores []float64 // what /v1/score answers
	// deltas[k] lists the targets of the k-th delta of the design's chain
	// and chain[k] the scores after it (delta designs only).
	deltas [][]int32
	chain  [][]float64
	// opi is the /v1/opi request, without its netlist or design, and
	// points and flow are the library flow's answer (opi designs only).
	opi    OPIRequest
	points []NodeScore
	flow   opi.FlowResult
}

// checkMixedTraffic computes the library answers with lib, then runs the
// mixed traffic three times, each time against a new server, with
// Float32Scoring set to f32, over a new clone of lib from clone. Nothing
// calls a clone before its traffic does, so any state inference wrote on
// the predictor would be written by concurrent requests, and three
// rounds give -race three chances to see such a write.
// Designs 0–2 take /v1/score requests, and design 0 a /v1/opi request by
// id as well; designs 3 and 4 take a delta chain each and then a /v1/opi
// request by the chain's last id, and designs 5 and 6 /v1/opi requests by
// netlist.
func checkMixedTraffic(t *testing.T, lib core.IncrementalPredictor, clone func() core.IncrementalPredictor, f32 bool) {
	score := lib.PredictProbs
	if f32 {
		score = lib.(float32Scorer).PredictProbs32
	}
	var designs []*mixedDesign
	for i := int64(0); i < 7; i++ {
		n := circuitgen.Generate(fmt.Sprint("mixed", i), circuitgen.Config{Seed: 20 + i, NumGates: 120 + 15*int(i)})
		d := &mixedDesign{text: benchText(t, n)}
		n, meas, g := compileForTest(t, d.text)
		d.scores = score(g)
		designs = append(designs, d)
		switch {
		case i == 3 || i == 4: // every delta session is float64
			var cands []int32
			for v := int32(0); v < int32(n.NumGates()); v++ {
				if n.Type(v) != netlist.Input && n.Type(v) != netlist.Output {
					cands = append(cands, v)
				}
			}
			for k := 0; k < 4; k++ {
				targets := []int32{cands[(7*k+int(i))%len(cands)], cands[(7*k+int(i)+3)%len(cands)]}
				for _, v := range targets {
					if _, _, err := insertForTest(n, meas, g, v); err != nil {
						t.Fatal(err)
					}
				}
				d.deltas = append(d.deltas, targets)
				d.chain = append(d.chain, lib.PredictProbs(g))
			}
			setLibraryOPI(t, d, lib, n, meas, g, d.chain[len(d.chain)-1])
		case i == 0 || i >= 5:
			setLibraryOPI(t, d, lib, n, meas, g, d.scores)
		}
	}

	for round := 0; round < 3; round++ {
		_, ts := newTestServer(t, Options{Predictor: clone(), Float32Scoring: f32, MaxConcurrent: 8, MaxQueue: 64})
		mixedTraffic(t, ts.URL, designs)
	}
}

// setLibraryOPI sets d's /v1/opi request and the library flow's answer
// on copies of (n, meas, g), each point labelled with its score in
// labels. The request's threshold makes a tenth of the cells positive, so
// that an untrained model's flow suggests points.
func setLibraryOPI(t *testing.T, d *mixedDesign, lib core.IncrementalPredictor,
	n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, labels []float64) {
	t.Helper()
	probs := lib.PredictProbs(g)
	sort.Float64s(probs)
	d.opi = OPIRequest{Threshold: probs[len(probs)*9/10], PerIteration: 3, MaxPoints: 6}
	d.flow = opi.RunFlow(n.Clone(), meas.Clone(), g.Clone(), lib, opi.FlowConfig{
		Threshold: d.opi.Threshold, PerIteration: d.opi.PerIteration, MaxInsertions: d.opi.MaxPoints,
	})
	if len(d.flow.Targets) == 0 {
		t.Fatalf("%s: the library flow suggested no points", n.Name)
	}
	for _, v := range d.flow.Targets {
		d.points = append(d.points, NodeScore{ID: v, Name: n.Gate(v).Name, Score: labels[v]})
	}
}

// TestOPIByIDRunsNoForward: with a real model, /v1/opi by id runs its
// flow on a copy of the cached design's warm session, so no request opens
// a session with a whole-graph forward (opi.full_inferences stays put),
// and every answer is == the library flow's.
func TestOPIByIDRunsNoForward(t *testing.T) {
	m := core.MustNewModel(core.DefaultConfig())
	d := &mixedDesign{text: benchText(t, circuitgen.Generate("byid", circuitgen.Config{Seed: 51, NumGates: 200}))}
	n, meas, g := compileForTest(t, d.text)
	d.scores = m.PredictProbs(g)
	setLibraryOPI(t, d, m, n, meas, g, d.scores)
	if d.flow.Iterations < 2 {
		t.Fatalf("the library flow ran %d round(s); the test needs updates", d.flow.Iterations)
	}

	_, ts := newTestServer(t, Options{Predictor: m})
	id, err := checkScores(ts.URL+"/v1/score", ScoreRequest{Netlist: d.text}, d.scores)
	if err != nil {
		t.Fatal(err)
	}
	full, updates := obs.GetCounter("opi.full_inferences"), obs.GetCounter("opi.incremental_updates")
	full0, updates0 := full.Value(), updates.Value()
	const requests = 3
	req := d.opi
	req.Design = id
	for i := 0; i < requests; i++ {
		if err := checkOPI(ts.URL, req, d); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := full.Value() - full0; got != 0 {
		t.Fatalf("%d /v1/opi requests by id opened %d sessions with a whole-graph forward, want 0", requests, got)
	}
	if got, want := updates.Value()-updates0, int64(requests*(d.flow.Iterations-1)); got != want {
		t.Fatalf("the flows made %d session updates, want %d", got, want)
	}
}

// mixedTraffic sends the concurrent requests of checkMixedTraffic to the
// server at url and checks every answer.
func mixedTraffic(t *testing.T, url string, designs []*mixedDesign) {
	var wg sync.WaitGroup
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		d := designs[i]
		for c := 0; c < 2; c++ {
			run(func() error {
				for k := 0; k < 2; k++ {
					if _, err := checkScores(url+"/v1/score", ScoreRequest{Netlist: d.text}, d.scores); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	run(func() error {
		d := designs[0]
		id, err := checkScores(url+"/v1/score", ScoreRequest{Netlist: d.text}, d.scores)
		if err != nil {
			return err
		}
		req := d.opi
		req.Design = id
		return checkOPI(url, req, d)
	})
	for i := 3; i < 5; i++ {
		d := designs[i]
		run(func() error {
			id, err := checkScores(url+"/v1/score", ScoreRequest{Netlist: d.text}, d.scores)
			if err != nil {
				return err
			}
			for k, targets := range d.deltas {
				if id, err = checkScores(url+"/v1/score/delta", DeltaRequest{Design: id, Observe: targets}, d.chain[k]); err != nil {
					return fmt.Errorf("delta %d: %v", k, err)
				}
			}
			req := d.opi
			req.Design = id
			return checkOPI(url, req, d)
		})
	}
	for i := 5; i < 7; i++ {
		d := designs[i]
		for c := 0; c < 2; c++ {
			run(func() error {
				req := d.opi
				req.Netlist = d.text
				return checkOPI(url, req, d)
			})
		}
	}
	wg.Wait()
}

// post sends body to url and decodes a 200 answer into out; it is safe
// to call from any goroutine.
func post(url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// checkScores posts a score or delta request, checks that the answer's
// scores are == want, and returns the answer's design id.
func checkScores(url string, req any, want []float64) (string, error) {
	var resp ScoreResponse
	if err := post(url, req, &resp); err != nil {
		return "", err
	}
	if len(resp.Scores) != len(want) {
		return "", fmt.Errorf("%s: %d scores, want %d", url, len(resp.Scores), len(want))
	}
	for v := range want {
		if resp.Scores[v] != want[v] {
			return "", fmt.Errorf("%s node %d: score %g, library %g", url, v, resp.Scores[v], want[v])
		}
	}
	return resp.Design, nil
}

// checkOPI posts req to /v1/opi and checks the answer against the
// library flow's: the same points in the same order, each labelled with
// the score /v1/score serves for it.
func checkOPI(url string, req OPIRequest, d *mixedDesign) error {
	var resp OPIResponse
	if err := post(url+"/v1/opi", req, &resp); err != nil {
		return err
	}
	if resp.Iterations != d.flow.Iterations || resp.FinalPositives != d.flow.FinalPositives || len(resp.Points) != len(d.points) {
		return fmt.Errorf("opi: %d iterations, %d final positives, %d points; library %d, %d, %d",
			resp.Iterations, resp.FinalPositives, len(resp.Points), d.flow.Iterations, d.flow.FinalPositives, len(d.points))
	}
	for k, p := range resp.Points {
		if p != d.points[k] {
			return fmt.Errorf("opi point %d: %+v, library %+v", k, p, d.points[k])
		}
	}
	return nil
}
