package core

import (
	"math"
	"math/rand"
	"testing"
)

// testCascade builds an untrained two-stage cascade; parameter values are
// random but deterministic, which is all parity testing needs.
func testCascade(seed int64) *MultiStage {
	return &MultiStage{
		Stages: []*Model{
			MustNewModel(tinyConfig(seed)),
			MustNewModel(tinyConfig(seed + 31)),
		},
		FilterBelow: 0.25,
	}
}

// TestMultiStageIncrementalMatchesFullAfterMutations is the cascade twin
// of TestIncrementalMatchesFullAfterMutations: == to PredictProbs after
// every one of many mixed edits.
func TestMultiStageIncrementalMatchesFullAfterMutations(t *testing.T) {
	g := testGraph(201, 400)
	ms := testCascade(11)
	st := ms.ForwardFull(g)

	full := ms.PredictProbs(g)
	for v := range full {
		if st.Probs[v] != full[v] {
			t.Fatalf("initial cascade state disagrees at %d", v)
		}
	}

	rng := rand.New(rand.NewSource(5))
	for step := 0; step < mutationSteps; step++ {
		ms.UpdateIncremental(st, g, mutate(g, rng, step))
		want := ms.PredictProbs(g)
		for v := range want {
			if st.Probs[v] != want[v] {
				t.Fatalf("step %d: node %d cascade incremental %g full %g (off by %g)",
					step, v, st.Probs[v], want[v], st.Probs[v]-want[v])
			}
		}
		if len(st.Probs) != g.N {
			t.Fatalf("step %d: state tracks %d nodes, graph has %d", step, len(st.Probs), g.N)
		}
	}
}

func TestMultiStageIncrementalSingleStage(t *testing.T) {
	// A one-stage cascade must behave exactly like its model.
	g := testGraph(202, 200)
	ms := &MultiStage{Stages: []*Model{MustNewModel(tinyConfig(3))}, FilterBelow: 0.25}
	st := ms.ForwardFull(g)
	g.AddObservationPoint(7)
	ms.UpdateIncremental(st, g, nil)
	want := ms.Stages[0].Predict(g)
	for v := range want {
		if math.Abs(st.Probs[v]-want[v]) > 1e-9 {
			t.Fatalf("node %d: %g want %g", v, st.Probs[v], want[v])
		}
	}
}

func TestMultiStageNewIncrementalRun(t *testing.T) {
	// The IncrementalRun capability surface used by the insertion flow.
	g := testGraph(203, 150)
	var ip IncrementalPredictor = testCascade(17)
	run := ip.NewIncremental(g)
	g.SetAttributes(3, 4, 2, 2, 9)
	run.Update(g, []int32{3})
	want := ip.PredictProbs(g)
	probs := run.Probs()
	for v := range want {
		if math.Abs(probs[v]-want[v]) > 1e-9 {
			t.Fatalf("node %d: run %g full %g", v, probs[v], want[v])
		}
	}
}
