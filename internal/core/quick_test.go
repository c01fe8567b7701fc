package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickConfig pins the generator so the 200-case sweeps are
// reproducible run to run; bump the seed, not MaxCount, to explore.
func quickConfig(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
}

// TestQuickPredictionsAreProbabilities: for random graphs and random
// model seeds, every prediction is a finite probability.
func TestQuickPredictionsAreProbabilities(t *testing.T) {
	f := func(gseed, mseed int64) bool {
		g := testGraph(gseed%1000, 120)
		m := MustNewModel(tinyConfig(mseed))
		for _, p := range m.Predict(g) {
			if p < 0 || p > 1 || math.IsNaN(p) || math.IsInf(p, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(101)); err != nil {
		t.Error(err)
	}
}

// TestQuickGraphMutationInvariants: observation point insertion always
// grows N and edge count by exactly one and never disturbs other rows.
func TestQuickGraphMutationInvariants(t *testing.T) {
	f := func(seed int64, rawTarget uint16) bool {
		g := testGraph(seed%1000, 100)
		target := int32(int(rawTarget) % g.N)
		n0, e0 := g.N, g.Pred().NNZ()
		before := g.X.Clone()
		p := g.AddObservationPoint(target)
		if g.N != n0+1 || g.Pred().NNZ() != e0+1 || int(p) != n0 {
			return false
		}
		for v := 0; v < n0; v++ {
			for j := 0; j < InputDim; j++ {
				if g.X.At(v, j) != before.At(v, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(202)); err != nil {
		t.Error(err)
	}
}

// TestQuickCloneRoundTrip: a clone predicts identically under any model.
func TestQuickCloneRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := testGraph(seed%1000, 80)
		m := MustNewModel(tinyConfig(seed))
		a := m.Predict(g)
		b := m.Predict(g.Clone())
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(303)); err != nil {
		t.Error(err)
	}
}
