package core

import (
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// This file is the model's one inference forward. Forward, Predict,
// PredictProbs and ForwardFull all run infer; training (forward) and
// the incremental session (UpdateIncremental) run the same aggregate and
// encoder steps.
// The precision is a type parameter: float64 is the exact path, float32
// the narrow scoring mode of DESIGN.md decision 10, in which trained
// parameters are narrowed once into a cached bundle and the pass runs
// with float32 SpMM and matmul kernels, roughly halving its memory
// traffic. Training, gradient checking and the incremental session stay
// float64; the refcheck differential suite pins the f32/f64 divergence
// at ≤1e-4 relative error over seeded circuits.

// Float32Inferencer is the capability the serving/CLI layers probe to
// flip a loaded predictor into float32 scoring. *Model and *MultiStage
// implement it.
type Float32Inferencer interface {
	SetFloat32Inference(on bool)
	Float32Inference() bool
}

// SetFloat32Inference toggles the float32 scoring path for Predict and
// PredictProbs. Enabling (or re-enabling) drops any cached narrowed
// weights so the next prediction re-converts from the current float64
// parameters — call it again after mutating parameters by hand. Load and
// CopyParamsFrom invalidate the cache automatically. Forward,
// ForwardFull / NewIncremental (the incremental session) and training
// always run float64 regardless of this flag.
func (m *Model) SetFloat32Inference(on bool) {
	m.f32 = on
	m.w32 = nil
}

// Float32Inference reports whether float32 scoring is enabled.
func (m *Model) Float32Inference() bool { return m.f32 }

// layer is one linear layer's parameters in precision T.
type layer[T tensor.Float] struct {
	W tensor.Mat[T] // In×Out
	B []T
}

// weights is a model's parameters in precision T. In float64 the
// matrices alias the trainable parameters, so building the bundle costs
// a few headers; in float32 they are a narrowed copy, built once per
// parameter change and cached on the Model (weights32).
type weights[T tensor.Float] struct {
	wpr, wsu T
	enc, fc  []layer[T]
}

func newWeights[T tensor.Float](m *Model) *weights[T] {
	return &weights[T]{
		wpr: T(m.Wpr.Data[0]), wsu: T(m.Wsu.Data[0]),
		enc: layers[T](m.Enc), fc: layers[T](m.FC.Layers),
	}
}

func layers[T tensor.Float](ls []*nn.Linear) []layer[T] {
	out := make([]layer[T], len(ls))
	for i, l := range ls {
		out[i] = layer[T]{W: tensor.Mat[T]{Rows: l.In, Cols: l.Out, Data: params[T](l.W.Data)}, B: params[T](l.B.Data)}
	}
	return out
}

// params returns xs in precision T: xs itself for float64, a rounded
// copy for float32.
func params[T tensor.Float](xs []float64) []T {
	if same, ok := any(xs).([]T); ok {
		return same
	}
	out := make([]T, len(xs))
	for i, v := range xs {
		out[i] = T(v)
	}
	return out
}

// weights32 returns the cached float32 parameters, narrowing them once.
func (m *Model) weights32() *weights[float32] {
	if m.w32 == nil {
		m.w32 = newWeights[float32](m)
	}
	return m.w32
}

// apply computes out = in·W + b, followed by ReLU when relu is set.
func (l *layer[T]) apply(out, in *tensor.Mat[T], relu bool) {
	tensor.MatMul(out, in, &l.W)
	out.AddRowVector(l.B)
	if relu {
		out.ReLUInPlace()
	}
}

// aggregate is the aggregator of one layer (Equation 1; with the
// encoder that follows it, Equation 3 with A = I + wpr·P + wsu·S):
//
//	agg = cur + wpr·(P·cur) + wsu·(S·cur)
//
// over every row when rows is nil, otherwise over the listed rows only
// (row i of pe, se and agg is then node rows[i]). pe and se receive P·cur
// and S·cur; training keeps them for backpropagation, inference passes
// one scratch buffer as both (se is computed only after pe has been
// folded into agg). Whichever rows are computed, each element sees the
// same operations in the same order, so a frontier row is bit-identical
// to the whole-graph row.
func aggregate[T tensor.Float](g *Graph, w *weights[T], cur *tensor.Mat[T], rows []int32, pe, se, agg *tensor.Mat[T]) {
	P, S := g.Pred(), g.Succ()
	if rows == nil {
		sparse.Mul(P, pe, cur, 0)
		agg.CopyFrom(cur)
	} else {
		sparse.MulGather(P, pe, cur, rows)
		for i, v := range rows {
			copy(agg.Row(i), cur.Row(int(v)))
		}
	}
	agg.AxpyInPlace(w.wpr, pe)
	if rows == nil {
		sparse.Mul(S, se, cur, 0)
	} else {
		sparse.MulGather(S, se, cur, rows)
	}
	agg.AxpyInPlace(w.wsu, se)
}

// head runs the FC classifier over in (one row per node) into logits.
// The hidden activations are scratch from s (nil: the shared pool); when
// own is set, in came from s too and goes back as soon as the first
// layer has read it.
func (w *weights[T]) head(s *tensor.Scratch[T], logits, in *tensor.Mat[T], own bool) {
	cur := in
	for i := range w.fc[:len(w.fc)-1] {
		l := &w.fc[i]
		out := s.Get(logits.Rows, l.W.Cols)
		l.apply(out, cur, true)
		if i > 0 || own {
			s.Put(cur)
		}
		cur = out
	}
	w.fc[len(w.fc)-1].apply(logits, cur, false)
	if cur != in || own {
		s.Put(cur)
	}
}

// infer is the inference forward over the whole graph in precision T.
// It returns newly allocated logits and, when keep is set, the
// per-layer embeddings E_0 (a private copy of g.X) … E_D, also newly
// allocated and owned by the caller. Every other intermediate (P·E,
// S·E, the aggregates, FC activations and, without keep, the
// embeddings) is scratch from the retained tensor.Scratch set, returned
// as soon as its last reader is done so the next Get can reuse it, and
// all of it before infer returns: neither the Model nor its MLP holds
// any per-call buffer afterwards.
func infer[T tensor.Float](w *weights[T], g *Graph, keep bool) (*tensor.Mat[T], []*tensor.Mat[T]) {
	s := tensor.AcquireScratch[T]()
	defer s.Release()
	alloc := s.Get
	if keep {
		alloc = tensor.New[T]
	}
	var embeds []*tensor.Mat[T]
	cur := alloc(g.N, g.X.Cols)
	tensor.ConvertInto(cur, g.X)
	for i := range w.enc {
		l := &w.enc[i]
		pe := s.Get(g.N, cur.Cols)
		agg := s.Get(g.N, cur.Cols)
		aggregate(g, w, cur, nil, pe, pe, agg)
		s.Put(pe)
		if keep {
			embeds = append(embeds, cur)
		} else {
			s.Put(cur)
		}
		cur = alloc(g.N, l.W.Cols)
		l.apply(cur, agg, true)
		s.Put(agg)
	}
	if keep {
		embeds = append(embeds, cur)
	}
	logits := tensor.New[T](g.N, w.fc[len(w.fc)-1].W.Cols)
	w.head(s, logits, cur, !keep)
	return logits, embeds
}

// probs returns the positive-class probability of every row of logits.
// The softmax runs in float64 whatever the inference precision (widening
// is exact; the exp/normalize is O(N·C) and cheap, and doing it wide
// avoids compounding rounding in the probabilities the OPI flow
// thresholds against).
func probs[T tensor.Float](logits *tensor.Mat[T]) []float64 {
	p := tensor.Convert[float64](logits)
	p.SoftmaxRowsInPlace()
	out := make([]float64, p.Rows)
	for i := range out {
		out[i] = p.At(i, 1)
	}
	return out
}

// SetFloat32Inference flips every stage of the cascade; the combining
// logic (CombineStageProbs) is precision-agnostic.
func (ms *MultiStage) SetFloat32Inference(on bool) {
	for _, s := range ms.Stages {
		s.SetFloat32Inference(on)
	}
}

// Float32Inference reports whether the cascade's stages score in
// float32 (true only when every stage does).
func (ms *MultiStage) Float32Inference() bool {
	if len(ms.Stages) == 0 {
		return false
	}
	for _, s := range ms.Stages {
		if !s.Float32Inference() {
			return false
		}
	}
	return true
}
