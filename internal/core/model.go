package core

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config describes the GCN architecture. The defaults reproduce the
// paper's final network: search depth D = 3 with embedding dimensions
// K = [32, 64, 128], followed by four fully connected layers of
// dimensions 64, 64, 128 and 2.
type Config struct {
	// Dims holds the embedding dimension after each aggregate+encode
	// step; len(Dims) is the search depth D.
	Dims []int
	// FCDims holds the hidden widths of the classifier head; the final
	// NumClasses output layer is appended automatically.
	FCDims []int
	// NumClasses is the output arity (2: easy / difficult to observe).
	NumClasses int
	// Seed drives parameter initialization.
	Seed int64
	// NoPredecessors / NoSuccessors ablate one aggregation direction of
	// Equation 1 (the corresponding weight is frozen at zero). The full
	// bidirectional aggregator is the paper's design choice; the
	// ablation benchmarks quantify what each direction buys.
	NoPredecessors bool
	NoSuccessors   bool
}

// DefaultConfig returns the paper's architecture.
func DefaultConfig() Config {
	return Config{
		Dims:       []int{32, 64, 128},
		FCDims:     []int{64, 64, 128},
		NumClasses: 2,
	}
}

// Depth returns the search depth D.
func (c Config) Depth() int { return len(c.Dims) }

func (c Config) validate() error {
	if len(c.Dims) == 0 {
		return fmt.Errorf("core: config needs at least one embedding layer")
	}
	for _, d := range c.Dims {
		if d <= 0 {
			return fmt.Errorf("core: non-positive embedding dim %d", d)
		}
	}
	if c.NumClasses < 2 {
		return fmt.Errorf("core: need at least 2 classes, got %d", c.NumClasses)
	}
	return nil
}

// Model is the GCN: D aggregator/encoder pairs followed by an FC
// classifier. The aggregator is the paper's weighted sum (Equation 1)
//
//	g_d(v) = e_{d-1}(v) + wpr·Σ_{u∈PR(v)} e_{d-1}(u) + wsu·Σ_{u∈SU(v)} e_{d-1}(u)
//
// with the scalar weights wpr and wsu shared across depths and learned
// end-to-end together with the encoder matrices W_d and the classifier.
type Model struct {
	Cfg Config

	Wpr *nn.Param // predecessor aggregation weight (scalar)
	Wsu *nn.Param // successor aggregation weight (scalar)
	Enc []*nn.Linear
	FC  *nn.MLP

	// f32 enables the float32 scoring path (see infer.go); w32 caches the
	// narrowed parameters. Per-call buffers are pooled scratch, never kept
	// on the Model, but the cache makes a Model unsafe for concurrent use
	// all the same; the trainer gives each worker its own replica.
	f32 bool
	w32 *weights[float32]
}

// NewModel initializes a model from cfg using cfg.Seed.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Wpr: nn.NewParam("gcn.wpr", 1), Wsu: nn.NewParam("gcn.wsu", 1)}
	// Small asymmetric starts break the pred/succ symmetry while keeping
	// hub-node activations bounded at initialization (the weighted-sum
	// aggregator scales with degree). Ablated directions stay at zero.
	if !cfg.NoPredecessors {
		m.Wpr.Data[0] = 0.1
	}
	if !cfg.NoSuccessors {
		m.Wsu.Data[0] = 0.08
	}
	in := InputDim
	for d, k := range cfg.Dims {
		m.Enc = append(m.Enc, nn.NewLinear(fmt.Sprintf("gcn.enc%d", d+1), in, k, rng))
		in = k
	}
	fcDims := append([]int{in}, cfg.FCDims...)
	fcDims = append(fcDims, cfg.NumClasses)
	m.FC = nn.NewMLP("gcn", fcDims, rng)
	return m, nil
}

// MustNewModel is NewModel that panics on configuration errors.
func MustNewModel(cfg Config) *Model {
	m, err := NewModel(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns every trainable parameter: wpr, wsu, all encoders and
// the classifier head.
func (m *Model) Params() []*nn.Param {
	ps := []*nn.Param{m.Wpr, m.Wsu}
	for _, e := range m.Enc {
		ps = append(ps, e.Params()...)
	}
	ps = append(ps, m.FC.Params()...)
	return ps
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	total := 0
	for _, p := range m.Params() {
		total += len(p.Data)
	}
	return total
}

// Save writes the parameters to w.
func (m *Model) Save(w io.Writer) error { return nn.SaveParams(w, m.Params()) }

// Load restores parameters saved by Save into a model of identical
// architecture.
func (m *Model) Load(r io.Reader) error {
	m.w32 = nil // cached f32 weights no longer match
	return nn.LoadParams(r, m.Params())
}

// Clone returns a model with the same architecture and copied parameter
// values (fresh gradient/momentum state). Used by the data-parallel
// trainer's worker replicas.
func (m *Model) Clone() *Model {
	c := MustNewModel(m.Cfg)
	c.CopyParamsFrom(m)
	c.f32 = m.f32
	return c
}

// CopyParamsFrom copies parameter values (not gradients) from src;
// architectures must match.
func (m *Model) CopyParamsFrom(src *Model) {
	m.w32 = nil // cached f32 weights no longer match
	dst, s := m.Params(), src.Params()
	if len(dst) != len(s) {
		panic("core: CopyParamsFrom architecture mismatch")
	}
	for i := range dst {
		if len(dst[i].Data) != len(s[i].Data) {
			panic("core: CopyParamsFrom parameter shape mismatch")
		}
		copy(dst[i].Data, s[i].Data)
	}
}

// forwardCache retains every intermediate needed by Backward.
type forwardCache struct {
	embeds []*tensor.Dense // embeds[0] = X, embeds[d] = E_d (post-ReLU)
	pe     []*tensor.Dense // pe[d] = P·E_{d-1}
	se     []*tensor.Dense // se[d] = S·E_{d-1}
	agg    []*tensor.Dense // agg[d] = G_d (aggregated, pre-encoder)
	logits *tensor.Dense
}

// Forward runs matrix-formulated inference over the whole graph and
// returns the logits (N×NumClasses). The per-step computation is
// Equation 3: E_d = σ((A·E_{d-1})·W_d) with A = I + wpr·P + wsu·S, which
// this implementation evaluates as three terms so that wpr and wsu stay
// differentiable scalars. Forward always runs float64.
func (m *Model) Forward(g *Graph) *tensor.Dense {
	logits, _ := infer(newWeights[float64](m), g, false)
	return logits
}

// Embeddings returns the final node embeddings E_D (before the FC head).
func (m *Model) Embeddings(g *Graph) *tensor.Dense {
	_, embeds := infer(newWeights[float64](m), g, true)
	return embeds[len(embeds)-1]
}

// forward is the training pass: the same aggregate and encoder steps as
// inference, with every intermediate kept for backward.
func (m *Model) forward(g *Graph) (*tensor.Dense, *forwardCache) {
	w := newWeights[float64](m)
	cur := g.X
	cache := &forwardCache{embeds: []*tensor.Dense{cur}}
	for i := range w.enc {
		l := &w.enc[i]
		pe := tensor.NewDense(g.N, cur.Cols)
		se := tensor.NewDense(g.N, cur.Cols)
		agg := tensor.NewDense(g.N, cur.Cols)
		next := tensor.NewDense(g.N, l.W.Cols)
		aggregate(g, w, cur, pe, se, agg)
		l.apply(next, agg, true)
		cache.pe = append(cache.pe, pe)
		cache.se = append(cache.se, se)
		cache.agg = append(cache.agg, agg)
		cur = next
		cache.embeds = append(cache.embeds, cur)
	}
	cache.logits = m.FC.Forward(cur)
	return cache.logits, cache
}

// LossAndGrad runs one full forward/backward pass over the graph,
// accumulating parameter gradients. Nodes with label -1 are masked out of
// the loss. classWeights (len NumClasses) applies the paper's imbalance
// weighting; nil means uniform. It returns the scalar loss.
func (m *Model) LossAndGrad(g *Graph, labels []int, classWeights []float64) float64 {
	logits, cache := m.forward(g)
	loss, dlogits := nn.WeightedCrossEntropy(logits, labels, classWeights)
	m.backward(g, cache, dlogits)
	return loss
}

func (m *Model) backward(g *Graph, cache *forwardCache, dlogits *tensor.Dense) {
	P, S := g.Pred(), g.Succ()
	wpr, wsu := m.Wpr.Data[0], m.Wsu.Data[0]

	grad := m.FC.Backward(dlogits) // dE_D
	for d := len(m.Enc) - 1; d >= 0; d-- {
		// Undo ReLU on E_{d+1}.
		tensor.ReLUBackwardInPlace(grad, cache.embeds[d+1])
		// Encoder backward: H = G·W + b.
		dagg := m.Enc[d].Backward(cache.agg[d], grad)
		// Aggregator backward.
		m.Wpr.Grad[0] += cache.pe[d].Dot(dagg)
		m.Wsu.Grad[0] += cache.se[d].Dot(dagg)
		if d == 0 {
			break // no gradient needed past the input attributes
		}
		// dE_{d-1} = dG + wpr·Pᵀ·dG + wsu·Sᵀ·dG, and Pᵀ = S, Sᵀ = P.
		// tmp is pure scratch for the two transpose products — pooled,
		// unlike dprev which escapes as the next iteration's grad.
		tmp := tensor.GetDense(g.N, dagg.Cols)
		S.MulDenseParallel(tmp, dagg, 0)
		dprev := dagg.Clone()
		dprev.AxpyInPlace(wpr, tmp)
		P.MulDenseParallel(tmp, dagg, 0)
		dprev.AxpyInPlace(wsu, tmp)
		tensor.PutDense(tmp)
		grad = dprev
	}
	// Ablated aggregation directions stay frozen at zero.
	if m.Cfg.NoPredecessors {
		m.Wpr.Grad[0] = 0
	}
	if m.Cfg.NoSuccessors {
		m.Wsu.Grad[0] = 0
	}
}

// Predict returns the positive-class probability for every node. With
// SetFloat32Inference(true) the pass runs in float32 (infer.go);
// otherwise exact float64.
func (m *Model) Predict(g *Graph) []float64 {
	if m.f32 {
		logits, _ := infer(m.weights32(), g, false)
		return probs(logits)
	}
	return probs(m.Forward(g))
}

// PredictProbs is an alias of Predict satisfying the insertion flow's
// Predictor interface (MultiStage exposes the same method).
func (m *Model) PredictProbs(g *Graph) []float64 { return m.Predict(g) }

// PredictLabels thresholds Predict at 0.5.
func (m *Model) PredictLabels(g *Graph) []int {
	probs := m.Predict(g)
	out := make([]int, len(probs))
	for i, p := range probs {
		if p >= 0.5 {
			out[i] = 1
		}
	}
	return out
}
