package opi

import (
	"sort"
	"testing"

	"repro/internal/core"
)

// flowThreshold picks a positive cutoff such that roughly frac of the
// nodes are positive under pred, placed at the midpoint of the gap
// between two adjacent probabilities so that no node sits on the
// cutoff itself.
func flowThreshold(g *core.Graph, pred Predictor, frac float64) float64 {
	probs := append([]float64(nil), pred.PredictProbs(g)...)
	sort.Float64s(probs)
	idx := int((1 - frac) * float64(len(probs)-1))
	if idx+1 >= len(probs) {
		return probs[idx]
	}
	return (probs[idx] + probs[idx+1]) / 2
}

// runEquivalence runs the same flow twice on identical copies of one
// seeded design — once forced onto per-iteration full inference, once on
// the cached-embedding path — and requires identical outcomes.
func runEquivalence(t *testing.T, seed int64, gates int, mk func() Predictor) FlowResult {
	t.Helper()
	nFull, mFull, gFull := buildBench(t, seed, gates)
	nInc, mInc, gInc := buildBench(t, seed, gates)

	pred := mk()
	thr := flowThreshold(gFull, pred, 0.03)
	cfg := FlowConfig{Threshold: thr, PerIteration: 6, MaxIterations: 5}

	cfgFull := cfg
	cfgFull.DisableIncremental = true
	resFull := RunFlow(nFull, mFull, gFull, pred, cfgFull)
	resInc := RunFlow(nInc, mInc, gInc, pred, cfg)

	if resFull.Iterations != resInc.Iterations {
		t.Fatalf("seed %d: iterations full=%d incremental=%d", seed, resFull.Iterations, resInc.Iterations)
	}
	if resFull.FinalPositives != resInc.FinalPositives {
		t.Fatalf("seed %d: final positives full=%d incremental=%d",
			seed, resFull.FinalPositives, resInc.FinalPositives)
	}
	if len(resFull.Targets) != len(resInc.Targets) {
		t.Fatalf("seed %d: target counts full=%d incremental=%d",
			seed, len(resFull.Targets), len(resInc.Targets))
	}
	for i := range resFull.Targets {
		if resFull.Targets[i] != resInc.Targets[i] {
			t.Fatalf("seed %d: target %d differs: full=%d incremental=%d",
				seed, i, resFull.Targets[i], resInc.Targets[i])
		}
	}
	return resFull
}

func TestIncrementalFlowMatchesFullModel(t *testing.T) {
	mk := func() Predictor {
		return core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 71})
	}
	multi := 0
	for _, seed := range []int64{11, 12, 13} {
		if res := runEquivalence(t, seed, 1000, mk); res.Iterations >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no design ran more than one iteration; the incremental path was never exercised")
	}
}

func TestIncrementalFlowMatchesFullMultiStage(t *testing.T) {
	mk := func() Predictor {
		return &core.MultiStage{
			Stages: []*core.Model{
				core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 81}),
				core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 82}),
			},
			FilterBelow: 0.25,
		}
	}
	multi := 0
	for _, seed := range []int64{21, 22, 23} {
		if res := runEquivalence(t, seed, 1000, mk); res.Iterations >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no design ran more than one iteration; the incremental path was never exercised")
	}
}

// TestRunFlowStartsOneFullPass: a default flow pays whole-graph
// inference once, on its first round, and serves every later round from
// the cached-embedding update. obs is off in this package's tests, so a
// wrapping predictor counts the full passes.
func TestRunFlowStartsOneFullPass(t *testing.T) {
	n, m, g := buildBench(t, 31, 800)
	pred := &countingPredictor{
		inner: core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 91}),
	}
	thr := flowThreshold(g, pred.inner, 0.03)
	res := RunFlow(n, m, g, pred, FlowConfig{Threshold: thr, PerIteration: 4, MaxIterations: 4})
	if res.Iterations < 2 {
		t.Fatalf("flow converged in %d iteration(s); the test needs a multi-iteration flow", res.Iterations)
	}
	if pred.fullPasses != 1 {
		t.Fatalf("%d iterations started %d full passes, want 1", res.Iterations, pred.fullPasses)
	}
}

// countingPredictor forwards to a model and counts full passes started
// through the incremental capability.
type countingPredictor struct {
	inner      *core.Model
	fullPasses int
}

func (c *countingPredictor) PredictProbs(g *core.Graph) []float64 {
	return c.inner.PredictProbs(g)
}

func (c *countingPredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	c.fullPasses++
	return c.inner.NewIncremental(g)
}
