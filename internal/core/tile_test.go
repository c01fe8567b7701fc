package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
	"repro/internal/tensor"
)

// randomGraph builds an n-node graph with random attributes and about
// two random fan-ins per node (duplicates included), so node counts can
// sit exactly on the inference tile edges.
func randomGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	attrs := make([][4]float64, n)
	pred := sparse.NewCOO(n, n)
	for v := 0; v < n; v++ {
		attrs[v] = AttributeVector(float64(rng.Intn(40)), float64(1+rng.Intn(20)),
			float64(1+rng.Intn(20)), float64(rng.Intn(200)))
		for k := rng.Intn(4); k > 0; k-- {
			pred.Append(int32(v), int32(rng.Intn(n)), 1)
		}
	}
	g := NewGraph(pred)
	for v, a := range attrs {
		copy(g.X.Row(v), a[:])
	}
	return g
}

// tileGraphs covers one node, the tile edges T-1, T, T+1, several full
// tiles plus a ragged one, and a ~3k-node circuit.
func tileGraphs() map[string]*Graph {
	gs := map[string]*Graph{"circuit": testGraph(17, 2500)}
	for _, n := range []int{1, tileRows - 1, tileRows, tileRows + 1, 5*tileRows + 3} {
		gs[fmt.Sprint("n=", n)] = randomGraph(int64(n), n)
	}
	return gs
}

// sameMat reports whether a and b have the same shape and == elements.
func sameMat[T tensor.Float](a, b *tensor.Mat[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

func sameProbs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// atProcs runs fn at GOMAXPROCS n, restoring the old value afterwards.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// checkTiledMatchesTraining pins the tiled inference pass against the
// untiled training forward: Forward's logits (which cover E_D through the
// head), ForwardFull's embeddings E_0 … E_{D-1} and its probabilities
// must all be == to forward's.
func checkTiledMatchesTraining(t *testing.T, name string, m *Model, g *Graph) {
	t.Helper()
	want, cache := m.forward(g)
	if got := m.Forward(g); !sameMat(got, want) {
		t.Errorf("%s: Forward logits differ from the training forward", name)
	}
	st := m.ForwardFull(g)
	if !sameProbs(st.Probs, probs(want)) {
		t.Errorf("%s: ForwardFull probabilities differ from the training forward", name)
	}
	for d, e := range st.embeds {
		if !sameMat(e, cache.embeds[d]) {
			t.Errorf("%s: ForwardFull E_%d differs from the training forward", name, d)
		}
	}
}

// TestTiledInferenceMatchesTrainingForward checks every inference entry
// point against the training forward on graphs whose sizes sit on the
// tile edges, with one worker and with two.
func TestTiledInferenceMatchesTrainingForward(t *testing.T) {
	m := MustNewModel(Config{Dims: []int{32, 64, 128}, FCDims: []int{64, 64, 128}, NumClasses: 2, Seed: 5})
	for name, g := range tileGraphs() {
		for _, procs := range []int{1, 2} {
			atProcs(procs, func() { checkTiledMatchesTraining(t, fmt.Sprint(name, " procs=", procs), m, g) })
		}
	}
}

// TestTiledFloat32IndependentOfWorkers checks that float32 scoring gives
// the same bits with one worker and with two.
func TestTiledFloat32IndependentOfWorkers(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	for name, g := range tileGraphs() {
		var one, two []float64
		atProcs(1, func() { one = m.PredictProbs32(g) })
		atProcs(2, func() { two = m.PredictProbs32(g) })
		if !sameProbs(one, two) {
			t.Errorf("%s: PredictProbs32 differs between one and two workers", name)
		}
	}
}

// TestTiledMultiStage repeats both checks for a 3-stage cascade: every
// stage matches the training forward, and the cascade's float32
// probabilities do not depend on the worker count.
func TestTiledMultiStage(t *testing.T) {
	ms := &MultiStage{FilterBelow: 0.25}
	for s := int64(0); s < 3; s++ {
		ms.Stages = append(ms.Stages, MustNewModel(Config{Dims: []int{16, 24}, FCDims: []int{12}, NumClasses: 2, Seed: 40 + s}))
	}
	for name, g := range tileGraphs() {
		for _, procs := range []int{1, 2} {
			atProcs(procs, func() {
				for s, m := range ms.Stages {
					checkTiledMatchesTraining(t, fmt.Sprint(name, " stage ", s, " procs=", procs), m, g)
				}
			})
		}
		var one, two []float64
		atProcs(1, func() { one = ms.PredictProbs32(g) })
		atProcs(2, func() { two = ms.PredictProbs32(g) })
		if !sameProbs(one, two) {
			t.Errorf("%s: cascade PredictProbs32 differs between one and two workers", name)
		}
	}
}

// TestTiledHeadWithoutHiddenLayers covers a classifier with no hidden FC
// layer, where the head reads the final embeddings directly.
func TestTiledHeadWithoutHiddenLayers(t *testing.T) {
	m := MustNewModel(Config{Dims: []int{8}, NumClasses: 2, Seed: 9})
	checkTiledMatchesTraining(t, "no hidden FC", m, randomGraph(3, 2*tileRows+5))
}

// TestForwardAllocatesOnlyItsResult pins that a warm Forward allocates
// its weights bundle and its logits and nothing else, with one worker and
// with two, even when a garbage collection runs before every pass (the
// tile scratch lives on free lists, not in sync.Pools that a collection
// empties).
func TestForwardAllocatesOnlyItsResult(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	g := randomGraph(11, 5*tileRows+3)
	gc := testing.AllocsPerRun(10, runtime.GC) // the collection's own
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() {
			m.Forward(g)
			a := testing.AllocsPerRun(10, func() {
				runtime.GC()
				m.Forward(g)
			})
			if a-gc > 5 {
				t.Errorf("procs=%d: a warm Forward made %.0f allocations, want at most 5", procs, a-gc)
			}
		})
	}
}
