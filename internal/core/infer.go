package core

import (
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// This file is the model's one inference forward. Forward, Predict,
// PredictProbs, PredictProbs32 and ForwardFull all run infer; training
// (forward) and the incremental session (UpdateIncremental) run the same
// aggregate and encoder steps.
// The precision is a type parameter: float64 is the exact path, float32
// the narrow scoring call of DESIGN.md decision 10 (PredictProbs32), which
// narrows the trained parameters for that call and runs the pass with
// float32 SpMM and matmul kernels, roughly halving its memory traffic.
// Training, gradient checking and the incremental session stay float64;
// the refcheck differential suite pins the f32/f64 divergence at ≤1e-4
// relative error over seeded circuits.

// layer is one linear layer's parameters in precision T.
type layer[T tensor.Float] struct {
	W tensor.Mat[T] // In×Out
	B []T
}

// weights is a model's parameters in precision T. In float64 the
// matrices alias the trainable parameters, so building the bundle costs
// a few headers; in float32 they are a narrowed copy owned by the call
// that built it.
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

// apply computes out = in·W + b, followed by ReLU when relu is set, in
// one pass over out.
func (l *layer[T]) apply(out, in *tensor.Mat[T], relu bool) {
	tensor.Affine(out, in, &l.W, l.B, relu)
}

// aggregate is the training pass's aggregator of one layer (Equation 1;
// with the encoder that follows it, Equation 3 with A = I + wpr·P + wsu·S):
//
//	agg = cur + wpr·(P·cur) + wsu·(S·cur)
//
// over the whole graph. pe and se receive P·cur and S·cur, which backward
// needs for the ∂L/∂wpr and ∂L/∂wsu gradients. The tiled inference pass
// (pass.aggregate) evaluates the same expression, element by element in
// the same order, one row tile at a time.
func aggregate[T tensor.Float](g *Graph, w *weights[T], cur, pe, se, agg *tensor.Mat[T]) {
	sparse.Mul(g.Pred(), pe, cur, 0)
	agg.CopyFrom(cur)
	agg.AxpyInPlace(w.wpr, pe)
	sparse.Mul(g.Succ(), se, cur, 0)
	agg.AxpyInPlace(w.wsu, se)
}

// tileRows is the height of an inference row tile. A tile's scratch (its
// P·E and S·E rows, its aggregate and the FC head's activations, at most
// tileRows×128 elements each) stays in L2 while the encoder and the head
// run over it, and the ~24k-node Figure 10 graph still splits into ~190
// tiles, so the workers finish within a tile of each other. Measured on
// that graph (CHANGES.md), 64 ran ~7% slower than 128 on one worker and
// 256 matched 128 within noise on one worker and on two; 128 also keeps
// the incremental session's few-hundred-row frontiers split across
// workers.
const tileRows = 128

// pass is one tiled inference pass: the whole-graph forward of infer or
// the frontier refresh of UpdateIncremental. Each encoder layer is one
// par.For round over row tiles, and the last layer's tiles run the FC
// head too. For each tile, Do aggregates the tile's rows into tile
// scratch with the SpMM row kernel, runs the encoder's GEMM, bias and
// ReLU on them, and on the last layer runs all the FC layers on the
// tile. One worker computes each row, with the same kernels in the same
// order as the whole-graph kernels, so every output row is bit-identical
// whichever worker ran it and however the rows were tiled.
//
// Tiles only read E_d, the adjacency and the weights, and each writes
// its own rows of E_{d+1} and of the logits or the probabilities, so the
// workers share nothing else. g.Pred() and g.Succ() are resolved on the
// caller before the first round, since their lazy rebuild is not safe for
// concurrent first use. Passes and tile sets live on free lists per
// precision, so a pass allocates nothing of its own.
type pass[T tensor.Float] struct {
	w    *weights[T]
	P, S *sparse.CSR
	rows []int32 // the frontier rows (sorted); nil for the whole graph
	n    int     // rows in the pass: len(rows), or the graph's N
	d    int     // the encoder layer of the current round
	// in is E_d and out is E_{d+1}, nil on the last layer: E_D exists
	// only in tile scratch, for the head to read.
	in, out *tensor.Mat[T]
	// The head writes the logits rows of a whole-graph forward, or, when
	// probs is set (the incremental session), each row's positive-class
	// probability, computed on the tile as probs does.
	logits *tensor.Mat[T]
	probs  []float64
}

// tileSet is one worker's scratch for one tile. Each matrix is reshaped
// per use and keeps the largest backing array it has needed.
type tileSet[T tensor.Float] struct {
	agg, prod tensor.Mat[T]    // the aggregate; the P·E and S·E rows in turn
	out       tensor.Mat[T]    // E_{d+1} rows that are not written in place
	fc        [2]tensor.Mat[T] // the FC head's alternating activations
	logits    tensor.Mat[T]    // the logits of a session's rows
}

// shape returns d reshaped to rows×cols, growing its backing array to a
// full tile of that width when it is too small.
func shape[T tensor.Float](d *tensor.Mat[T], rows, cols int) *tensor.Mat[T] {
	if cap(d.Data) < rows*cols {
		d.Data = make([]T, tileRows*cols)
	}
	d.Rows, d.Cols, d.Data = rows, cols, d.Data[:rows*cols]
	return d
}

var (
	passes64, passes32 = par.NewFree[pass[float64]](), par.NewFree[pass[float32]]()
	tiles64, tiles32   = par.NewFree[tileSet[float64]](), par.NewFree[tileSet[float32]]()
)

// freeOf returns f32 when it is a list of *X and f64 otherwise: the
// list of the precision X is instantiated at.
func freeOf[X any](f64, f32 any) par.Free[X] {
	if f, ok := f32.(par.Free[X]); ok {
		return f
	}
	return f64.(par.Free[X])
}

// newPass returns a pass over g's adjacency; release it when done.
func newPass[T tensor.Float](w *weights[T], g *Graph) *pass[T] {
	p := freeOf[pass[T]](passes64, passes32).Get()
	p.w, p.P, p.S, p.n = w, g.Pred(), g.Succ(), g.N
	return p
}

func (p *pass[T]) release() {
	*p = pass[T]{}
	freeOf[pass[T]](passes64, passes32).Put(p)
}

// layer runs encoder layer d over every tile: out = σ((A·in)·W_d + b_d).
func (p *pass[T]) layer(d int, in, out *tensor.Mat[T]) {
	p.d, p.in, p.out = d, in, out
	par.For(0, (p.n+tileRows-1)/tileRows, p)
}

// Do runs tile t of the current layer.
func (p *pass[T]) Do(t int) {
	lo, hi := t*tileRows, min((t+1)*tileRows, p.n)
	var sel []int32
	if p.rows != nil {
		sel = p.rows[lo:hi]
	}
	tiles := freeOf[tileSet[T]](tiles64, tiles32)
	s := tiles.Get()
	l := &p.w.enc[p.d]
	agg := shape(&s.agg, hi-lo, p.in.Cols)
	p.aggregate(agg, shape(&s.prod, hi-lo, p.in.Cols), sel, lo, hi)
	var out *tensor.Mat[T]
	if p.out != nil && sel == nil {
		out = p.out.RowRange(lo, hi)
	} else {
		out = shape(&s.out, hi-lo, l.W.Cols)
	}
	l.apply(out, agg, true)
	if p.out != nil && sel != nil {
		for i, v := range sel {
			copy(p.out.Row(int(v)), out.Row(i))
		}
	}
	if p.d == len(p.w.enc)-1 {
		p.head(s, out, sel, lo, hi)
	}
	tiles.Put(s)
}

// aggregate writes the tile's rows of cur + wpr·(P·cur) + wsu·(S·cur)
// into agg: rows [lo, hi) of the graph, or the frontier rows sel. The
// P·cur and S·cur rows go through prod in turn, S's after P's has been
// folded in, exactly as the training aggregate folds its whole-graph
// products.
func (p *pass[T]) aggregate(agg, prod *tensor.Mat[T], sel []int32, lo, hi int) {
	if sel == nil {
		sparse.MulTile(p.P, prod, p.in, lo, hi)
		agg.CopyFrom(p.in.RowRange(lo, hi))
	} else {
		sparse.MulGather(p.P, prod, p.in, sel)
		for i, v := range sel {
			copy(agg.Row(i), p.in.Row(int(v)))
		}
	}
	agg.AxpyInPlace(p.w.wpr, prod)
	if sel == nil {
		sparse.MulTile(p.S, prod, p.in, lo, hi)
	} else {
		sparse.MulGather(p.S, prod, p.in, sel)
	}
	agg.AxpyInPlace(p.w.wsu, prod)
}

// head runs the FC classifier over the tile's final embeddings in. The
// hidden activations alternate between the tile set's two FC buffers;
// the logits go straight into their rows of the whole-graph logits, or,
// in a session, into a logits tile that the same softmax as probs turns
// into the rows' probabilities in place.
func (p *pass[T]) head(s *tileSet[T], in *tensor.Mat[T], sel []int32, lo, hi int) {
	fc := p.w.fc
	h := in
	for i := range fc[:len(fc)-1] {
		next := shape(&s.fc[i%2], in.Rows, fc[i].W.Cols)
		fc[i].apply(next, h, true)
		h = next
	}
	last := &fc[len(fc)-1]
	if p.probs == nil {
		last.apply(p.logits.RowRange(lo, hi), h, false)
		return
	}
	logits := shape(&s.logits, in.Rows, last.W.Cols)
	last.apply(logits, h, false)
	logits.SoftmaxRowsInPlace()
	for i := range logits.Rows {
		v := lo + i
		if sel != nil {
			v = int(sel[i])
		}
		p.probs[v] = float64(logits.At(i, 1))
	}
}

// infer is the inference forward over the whole graph in precision T.
// Without probs it returns newly allocated logits; E_1 … E_{D-1} are
// scratch from the retained tensor.Scratch set, at most two of them live
// at a time, and E_0 is g.X itself in float64. With probs (the
// incremental session's, len g.N) the head writes every row's
// positive-class probability into it instead, and infer returns no
// logits but E_0 (a private copy of g.X) … E_{D-1}, newly allocated and
// owned by the caller. Either way E_D never exists beyond the tile the
// head reads it from, and everything else is per-tile scratch from the
// workers' tile sets, so neither the Model nor its MLP holds any
// per-call buffer afterwards.
func infer[T tensor.Float](w *weights[T], g *Graph, probs []float64) (*tensor.Mat[T], []*tensor.Mat[T]) {
	keep := probs != nil
	alloc := tensor.New[T]
	var s *tensor.Scratch[T]
	if !keep {
		s = tensor.AcquireScratch[T]()
		defer s.Release()
		alloc = s.Get
	}
	p := newPass(w, g)
	defer p.release()
	p.probs = probs
	if !keep {
		p.logits = tensor.New[T](g.N, w.fc[len(w.fc)-1].W.Cols)
	}
	var embeds []*tensor.Mat[T]
	cur, shared := any(g.X).(*tensor.Mat[T])
	if keep || !shared {
		shared = false
		cur = alloc(g.N, g.X.Cols)
		tensor.ConvertInto(cur, g.X)
	}
	for d := range w.enc {
		if keep {
			embeds = append(embeds, cur)
		}
		var next *tensor.Mat[T] // nil for E_D, which lives only in the head's tiles
		if d < len(w.enc)-1 {
			next = alloc(g.N, w.enc[d].W.Cols)
		}
		p.layer(d, cur, next)
		if !keep && !shared {
			s.Put(cur)
		}
		cur, shared = next, false
	}
	return p.logits, embeds
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
