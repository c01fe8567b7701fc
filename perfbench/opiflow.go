package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/opi"
	"repro/internal/scoap"
	"repro/internal/serve"
)

// opiFlow is the Table 3 insertion flow as a service: two clients send
// POST /v1/opi for one design cached during set-up, with fault-simulated
// coverage before and after. Each request runs two full forward passes,
// incremental updates, fan-in-cone ranking and fault simulation, with both
// cores busy; it is the only workload that reaches internal/fault.
type opiFlow struct {
	text string
	ref  []float64 // library scores of the design
	thr  float64

	// The library copy requests clone from, and the lock the serving layer
	// also takes around its clone.
	mu   sync.Mutex
	n    *netlist.Netlist
	meas *scoap.Measures
	g    *core.Graph

	id   string            // the design id on the live server
	want serve.OPIResponse // the reference flow's answer
	body []byte
}

func (w *opiFlow) clients() int      { return 2 }
func (w *opiFlow) cacheEntries() int { return 1 }

func (w *opiFlow) requests() any {
	return map[string]any{"endpoint": "POST /v1/opi", "threshold": w.thr}
}

func (w *opiFlow) prepare(b *bench) error {
	cfg := circuitgen.OPIBench(b.cfg.Sizes.OPIGates)
	cfg.Seed = b.cfg.Seed*16 + 14
	text, err := b.writeBench("opi", circuitgen.Generate("opi", cfg))
	if err != nil {
		return err
	}
	w.text = text
	w.n, w.meas, w.g, err = compileText(text)
	if err != nil {
		return err
	}
	m := b.model.Clone()
	w.ref = m.PredictProbs(w.g)
	w.thr = threshold(w.ref)
	w.want = w.flow(b, m, func() float64 { return 0 }, map[string]float64{})
	// Every served answer must equal the reference, so this is also the
	// coverage gain the server delivers.
	b.values["coverage_gain_pct"] = 100 * (*w.want.CoverageAfter - *w.want.CoverageBefore)
	return nil
}

// flow is the serving layer's /v1/opi recipe on a private clone of the
// design, with each layer's time added to r. spent reports the time the
// predictor has used so far, so the flow's own ranking and insertion time
// can be told apart.
func (w *opiFlow) flow(b *bench, pred core.IncrementalPredictor, spent func() float64, r map[string]float64) serve.OPIResponse {
	sz := b.cfg.Sizes
	t := time.Now()
	w.mu.Lock()
	n, meas, g := w.n.Clone(), w.meas.Clone(), w.g.Clone()
	w.mu.Unlock()
	r["core.clone_ms"] += ms(t)

	t = time.Now()
	before := opi.Evaluate(n, fault.TPGConfig{MaxPatterns: sz.Patterns}).Coverage
	r["fault.evaluate_ms"] += ms(t)

	probs0 := pred.PredictProbs(g)
	t = time.Now()
	s0 := spent()
	res := opi.RunFlow(n, meas, g, pred, opi.FlowConfig{
		Threshold:     w.thr,
		PerIteration:  sz.PerIteration,
		MaxInsertions: sz.MaxPoints,
	})
	r["opi.rank_insert_ms"] += ms(t) - (spent() - s0)
	r["opi.iterations"] += float64(res.Iterations)
	r["opi.insertions"] += float64(len(res.Targets))

	t = time.Now()
	after := opi.Evaluate(n, fault.TPGConfig{MaxPatterns: sz.Patterns}).Coverage
	r["fault.evaluate_ms"] += ms(t)

	t = time.Now()
	points := make([]serve.NodeScore, len(res.Targets))
	for i, v := range res.Targets {
		points[i] = serve.NodeScore{ID: v, Name: n.Gate(v).Name, Score: probs0[v]}
	}
	r["serve.rank_ms"] += ms(t)
	return serve.OPIResponse{
		Design:         w.id,
		Points:         points,
		Iterations:     res.Iterations,
		FinalPositives: res.FinalPositives,
		CoverageBefore: &before,
		CoverageAfter:  &after,
	}
}

// check compares a response with the reference flow: points, scores and
// coverages all ==.
func (w *opiFlow) check(body []byte) bool {
	var r serve.OPIResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return false
	}
	return reflect.DeepEqual(r, w.want)
}

func (w *opiFlow) warm(b *bench, s *liveServer) error {
	var buf bytes.Buffer
	body, err := json.Marshal(serve.ScoreRequest{Netlist: w.text, Threshold: w.thr})
	if err != nil {
		return err
	}
	status, _, err := s.post("/v1/score", body, &buf)
	var r serve.ScoreResponse
	if classify(status, err) != ok || json.Unmarshal(buf.Bytes(), &r) != nil || !equalFloats(r.Scores, w.ref) {
		return fmt.Errorf("warm-up score: status %d, err %v", status, err)
	}
	w.id, w.want.Design = r.Design, r.Design
	w.body, err = json.Marshal(serve.OPIRequest{
		Design:       w.id,
		MaxPoints:    b.cfg.Sizes.MaxPoints,
		PerIteration: b.cfg.Sizes.PerIteration,
		Threshold:    w.thr,
		Evaluate:     true,
		Patterns:     b.cfg.Sizes.Patterns,
	})
	if err != nil {
		return err
	}
	// One request per predictor replica, so each has grown its scratch.
	return parallel(b.opts.MaxConcurrent, func(int) error {
		var buf bytes.Buffer
		status, _, err := s.post("/v1/opi", w.body, &buf)
		if classify(status, err) != ok || !w.check(buf.Bytes()) {
			return fmt.Errorf("warm-up opi: status %d, err %v", status, err)
		}
		return nil
	})
}

func (w *opiFlow) drive(b *bench, s *liveServer, seconds float64) *tally {
	bufs := make([]bytes.Buffer, b.clients)
	return closedLoop(b.clients, 0, seconds, func(c, _ int) (time.Duration, outcome, bool) {
		status, lat, err := s.post("/v1/opi", w.body, &bufs[c])
		o := classify(status, err)
		if o == ok && !w.check(bufs[c].Bytes()) {
			o = incorrect
		}
		return lat, o, false
	})
}

func (w *opiFlow) verify(*bench, *tally) error { return nil } // every answer was checked inline

// replay runs the same flow in two goroutines like the live clients, each
// with a timing predictor whose full passes are staged forwards; every
// replayed answer must be == the reference flow's.
func (w *opiFlow) replay(b *bench, seconds float64) ([]layerRec, error) {
	out := make([][]layerRec, b.clients)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	err := parallel(b.clients, func(c int) error {
		tp := &timedPredictor{st: newStager(b.model.Clone())}
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			r := newRec()
			tp.r = r.v
			wall := time.Now()
			resp := w.flow(b, tp, tp.spent, r.v)
			t := time.Now()
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
			r.v["serve.encode_ms"] = ms(t)
			r.wall = ms(wall)
			for _, k := range []string{"core.clone_ms", "fault.evaluate_ms", "core.full_forward_ms",
				"core.csr_rebuild_ms", "core.incremental_update_ms", "opi.rank_insert_ms",
				"serve.rank_ms", "serve.encode_ms"} {
				r.path += r.v[k]
			}
			r.ok = reflect.DeepEqual(resp, w.want)
			out[c] = append(out[c], r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var recs []layerRec
	for _, o := range out {
		recs = append(recs, o...)
	}
	return recs, nil
}
