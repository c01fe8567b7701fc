package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// layerMetrics is every per-layer metric a traced run reports, in the order
// BENCHMARK.json lists them. A layer a workload never reaches reads 0.
// Times and counts are per replayed request; the nn/sparse/tensor stage
// rows are per staged forward pass.
var layerMetrics = []struct{ Name, Unit string }{
	{"serve.encode_ms", "ms"},
	{"serve.rank_ms", "ms"},
	{"serve.other_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"netlist.read_ms", "ms"},
	{"netlist.levels_ms", "ms"},
	{"scoap.compute_ms", "ms"},
	{"core.graph_build_ms", "ms"},
	{"core.forward_ms", "ms"},
	{"core.forward_full_ms", "ms"},
	{"core.forward_alloc_mb", "MB"},
	{"core.stage_sum_ms", "ms"},
	{"core.stage_gap_pct", "%"},
	{"core.csr_rebuild_ms", "ms"},
	{"core.incremental_update_ms", "ms"},
	{"core.frontier_rows", "count"},
	{"core.frontier_ratio", "ratio"},
	{"core.full_forwards", "count"},
	{"core.full_forward_ms", "ms"},
	{"core.incremental_updates", "count"},
	{"core.clone_ms", "ms"},
	{"sparse.spmm_ms", "ms"},
	{"sparse.spmm_nnz", "count"},
	{"tensor.agg_axpy_ms", "ms"},
	{"tensor.relu_ms", "ms"},
	{"nn.enc_gemm_ms.d1", "ms"},
	{"nn.enc_gemm_ms.d2", "ms"},
	{"nn.enc_gemm_ms.d3", "ms"},
	{"nn.fc_ms.l0", "ms"},
	{"nn.fc_ms.l1", "ms"},
	{"nn.fc_ms.l2", "ms"},
	{"nn.fc_ms.l3", "ms"},
	{"nn.softmax_ms", "ms"},
	{"nn.gemm_gflop", "GFLOP"},
	{"nn.gemm_gflops", "GFLOP/s"},
	{"opi.insert_refresh_ms", "ms"},
	{"opi.dirty_rows", "count"},
	{"opi.rank_insert_ms", "ms"},
	{"opi.iterations", "count"},
	{"opi.insertions", "count"},
	{"fault.evaluate_ms", "ms"},
}

// layerRec is one replayed request.
type layerRec struct {
	v    map[string]float64 // per-layer values, keyed by layerMetrics names
	path float64            // ms in the layers on the request's serving path
	wall float64            // ms for the whole replayed serving path, timers included
	ok   bool               // the replay agreed with the library reference
}

func newRec() layerRec { return layerRec{v: map[string]float64{}, ok: true} }

// ms returns the milliseconds elapsed since t.
func ms(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// traced is the traced run: the first half of the time drives the server
// untraced, exactly as the measured run does, for the end-to-end median;
// the second half replays the same kind of request through the library
// with a timer around each layer call.
func traced(b *bench, w workload, srv *liveServer, res *result) error {
	half := b.cfg.Seconds / 2
	t := w.drive(b, srv, half)
	if err := w.verify(b, t); err != nil {
		return err
	}
	lat := t.latenciesMs()
	recs, err := w.replay(b, half)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("traced replay finished no request")
	}
	res.Attempted = t.attempted + len(recs)
	res.Failed = t.failed()
	res.Correct = t.incorrect == 0
	var path, wall []float64
	for _, r := range recs {
		if !r.ok {
			res.Failed++
			res.Correct = false
		}
		if g := r.v["nn.gemm_ms"]; g > 0 {
			r.v["nn.gemm_gflops"] = r.v["nn.gemm_gflop"] / (g / 1e3)
		}
		if f := r.v["core.forward_ms"]; f > 0 {
			r.v["core.stage_gap_pct"] = 100 * (r.v["core.stage_sum_ms"] - f) / f
		}
		path = append(path, r.path)
		wall = append(wall, r.wall)
	}
	e2e := median(lat)
	derived := map[string]float64{
		"serve.other_ms":    e2e - median(path),
		"trace.overhead_ms": median(wall) - e2e,
	}
	for _, lm := range layerMetrics {
		v, ok := derived[lm.Name]
		if !ok {
			vals := make([]float64, len(recs))
			for i, r := range recs {
				vals[i] = r.v[lm.Name]
			}
			v = median(vals)
		}
		res.Metrics = append(res.Metrics, metric{lm.Name, lm.Unit, v})
		b.values[lm.Name] = v
	}
	b.values["untraced_p50_ms"] = e2e
	b.values["untraced_samples"] = len(lat)
	b.values["traced_p50_ms"] = median(wall)
	b.values["traced_samples"] = len(recs)
	b.values["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	if gap := b.values["core.stage_gap_pct"].(float64); gap > 5 || gap < -5 {
		b.values["stage_gap_warning"] = "staged forward differs from core.forward_ms by more than 5%"
	}
	return nil
}

// stager replays core.Model.Forward's inference path one stage at a time,
// calling the same public kernels in the same order on buffers of the same
// shapes, so its logits are bit-identical to Forward's.
type stager struct {
	m                 *core.Model
	pe, se, agg, emb  []*tensor.Dense
	fc                []*tensor.Dense
	encNames, fcNames []string
}

func newStager(m *core.Model) *stager {
	s := &stager{
		m:   m,
		pe:  make([]*tensor.Dense, len(m.Enc)),
		se:  make([]*tensor.Dense, len(m.Enc)),
		agg: make([]*tensor.Dense, len(m.Enc)),
		emb: make([]*tensor.Dense, len(m.Enc)),
		fc:  make([]*tensor.Dense, len(m.FC.Layers)),
	}
	for d := range m.Enc {
		s.encNames = append(s.encNames, fmt.Sprintf("nn.enc_gemm_ms.d%d", d+1))
	}
	for i := range m.FC.Layers {
		s.fcNames = append(s.fcNames, fmt.Sprintf("nn.fc_ms.l%d", i))
	}
	return s
}

// fit returns d when it already has the shape, a new matrix otherwise.
func fit(d *tensor.Dense, rows, cols int) *tensor.Dense {
	if d != nil && d.Rows == rows && d.Cols == cols {
		return d
	}
	return tensor.NewDense(rows, cols)
}

// forward returns the logits and adds each stage's time and work to r.
func (s *stager) forward(g *core.Graph, r map[string]float64) *tensor.Dense {
	m := s.m
	P, S := g.Pred(), g.Succ()
	wpr, wsu := m.Wpr.Data[0], m.Wsu.Data[0]
	var sum, gemm, flop float64
	cur := g.X
	// Each stage's timer also covers fetching its output buffer, which is
	// reallocated when the graph's shape changes, as Forward's scratch is.
	for d, enc := range m.Enc {
		t := time.Now()
		s.pe[d] = fit(s.pe[d], g.N, cur.Cols)
		s.se[d] = fit(s.se[d], g.N, cur.Cols)
		P.MulDenseParallel(s.pe[d], cur, 0)
		S.MulDenseParallel(s.se[d], cur, 0)
		dt := ms(t)
		r["sparse.spmm_ms"] += dt
		r["sparse.spmm_nnz"] += float64(P.NNZ() + S.NNZ())
		sum += dt

		t = time.Now()
		s.agg[d] = fit(s.agg[d], g.N, cur.Cols)
		s.agg[d].CopyFrom(cur)
		s.agg[d].AxpyInPlace(wpr, s.pe[d])
		s.agg[d].AxpyInPlace(wsu, s.se[d])
		dt = ms(t)
		r["tensor.agg_axpy_ms"] += dt
		sum += dt

		t = time.Now()
		s.emb[d] = enc.ForwardInto(fit(s.emb[d], g.N, enc.Out), s.agg[d])
		dt = ms(t)
		r[s.encNames[d]] += dt
		gemm += dt
		flop += 2 * float64(g.N) * float64(enc.In) * float64(enc.Out)

		t = time.Now()
		s.emb[d].ReLUInPlace()
		dt = ms(t)
		r["tensor.relu_ms"] += dt
		sum += dt
		cur = s.emb[d]
	}
	for i, l := range m.FC.Layers {
		t := time.Now()
		s.fc[i] = l.ForwardInto(s.fc[i], cur)
		if i+1 < len(m.FC.Layers) {
			s.fc[i].ReLUInPlace()
		}
		dt := ms(t)
		r[s.fcNames[i]] += dt
		gemm += dt
		flop += 2 * float64(cur.Rows) * float64(l.In) * float64(l.Out)
		cur = s.fc[i]
	}
	r["core.stage_sum_ms"] += sum + gemm
	r["nn.gemm_ms"] += gemm
	r["nn.gemm_gflop"] += flop / 1e9
	return cur
}

// probs is the staged forward followed by the softmax, as Model.Predict.
func (s *stager) probs(g *core.Graph, r map[string]float64) []float64 {
	logits := s.forward(g, r)
	t := time.Now()
	p := nn.Softmax(logits)
	r["nn.softmax_ms"] += ms(t)
	out := make([]float64, g.N)
	for i := range out {
		out[i] = p.At(i, 1)
	}
	return out
}

// timedPredictor is the core.IncrementalPredictor handed to opi.RunFlow in
// the traced replay: full passes run the staged forward, incremental
// updates call Model.UpdateIncremental, and each adds its time to r.
type timedPredictor struct {
	st *stager
	r  map[string]float64
}

func (p *timedPredictor) PredictProbs(g *core.Graph) []float64 {
	t := time.Now()
	out := p.st.probs(g, p.r)
	p.r["core.full_forward_ms"] += ms(t)
	p.r["core.full_forwards"]++
	return out
}

func (p *timedPredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	t := time.Now()
	st := p.st.m.ForwardFull(g)
	p.r["core.full_forward_ms"] += ms(t)
	p.r["core.full_forwards"]++
	return &timedRun{p: p, st: st}
}

// spent is the predictor's time so far; the flow's own work is the rest.
func (p *timedPredictor) spent() float64 {
	return p.r["core.full_forward_ms"] + p.r["core.csr_rebuild_ms"] + p.r["core.incremental_update_ms"]
}

type timedRun struct {
	p  *timedPredictor
	st *core.IncrementalState
}

func (t *timedRun) Probs() []float64 { return t.st.Probs }

func (t *timedRun) Update(g *core.Graph, dirty []int32) {
	incrementalUpdate(t.p.st.m, t.st, g, dirty, t.p.r)
}

// incrementalUpdate rebuilds the CSR views a mutation left stale, then
// runs the D-hop-bounded update, timing the two apart.
func incrementalUpdate(m *core.Model, st *core.IncrementalState, g *core.Graph, dirty []int32, r map[string]float64) {
	t := time.Now()
	g.Pred()
	g.Succ()
	r["core.csr_rebuild_ms"] += ms(t)
	t = time.Now()
	rows := m.UpdateIncremental(st, g, dirty)
	r["core.incremental_update_ms"] += ms(t)
	r["core.incremental_updates"]++
	r["core.frontier_rows"] += float64(len(rows))
	r["frontier_ratio_sum"] += float64(len(rows)) / float64(g.N)
	r["core.frontier_ratio"] = r["frontier_ratio_sum"] / r["core.incremental_updates"]
}

// difficult builds the response's difficult list the way the serving
// layer does: every node at or above the threshold, by descending score.
func difficult(n *netlist.Netlist, probs []float64, thr float64) []serve.NodeScore {
	out := []serve.NodeScore{}
	for v, p := range probs {
		if p >= thr {
			out = append(out, serve.NodeScore{ID: int32(v), Name: n.Gate(int32(v)).Name, Score: p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}
