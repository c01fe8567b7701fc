package core

import (
	"math"
	"math/rand"
	"testing"
)

// mutationSteps is how many mixed edits the incremental-vs-full tests
// replay: enough attribute refreshes and insertions that rows accumulate
// many rounds of incremental relaxation.
const mutationSteps = 84

// mutate applies edit step of the mixed sequence the incremental tests
// replay: even steps refresh the attributes of a few random nodes (the
// cone refresh the insertion flow performs), odd steps insert an
// observation point (the graph grows). It returns the dirty rows.
func mutate(g *Graph, rng *rand.Rand, step int) []int32 {
	var dirty []int32
	if step%2 == 0 {
		for k := 0; k < 5; k++ {
			v := int32(rng.Intn(g.N))
			g.SetAttributes(v, float64(rng.Intn(30)), float64(1+rng.Intn(9)),
				float64(1+rng.Intn(9)), float64(rng.Intn(50)))
			dirty = append(dirty, v)
		}
		return dirty
	}
	target := int32(rng.Intn(g.N))
	for g.N > 0 && !insertableForTest(g, target) {
		target = int32(rng.Intn(g.N))
	}
	g.AddObservationPoint(target)
	return nil
}

// TestIncrementalMatchesFullAfterMutations pins DESIGN decision 6: after
// every one of many mixed edits the incremental session's probabilities
// are == to a full pass over the mutated graph, not merely close.
func TestIncrementalMatchesFullAfterMutations(t *testing.T) {
	g := testGraph(101, 400)
	m := MustNewModel(tinyConfig(7))
	st := m.ForwardFull(g)

	full := m.Predict(g)
	for v := range full {
		if st.Probs[v] != full[v] {
			t.Fatalf("initial state disagrees at %d", v)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for step := 0; step < mutationSteps; step++ {
		m.UpdateIncremental(st, g, mutate(g, rng, step))
		want := m.Predict(g)
		for v := range want {
			if st.Probs[v] != want[v] {
				t.Fatalf("step %d: node %d incremental %g full %g (off by %g)",
					step, v, st.Probs[v], want[v], st.Probs[v]-want[v])
			}
		}
	}
}

// insertableForTest avoids double-observing the same node (AddObservationPoint
// allows it on the graph side, but variety is better for the test).
func insertableForTest(g *Graph, v int32) bool {
	for _, s := range g.SuccList(v) {
		if int(s) >= g.N {
			return false
		}
	}
	return true
}

func TestIncrementalNoDirtyIsNoOp(t *testing.T) {
	g := testGraph(102, 200)
	m := MustNewModel(tinyConfig(8))
	st := m.ForwardFull(g)
	before := append([]float64(nil), st.Probs...)
	m.UpdateIncremental(st, g, nil)
	for v := range before {
		if st.Probs[v] != before[v] {
			t.Fatalf("no-op update changed node %d", v)
		}
	}
}

func TestIncrementalStateIsolatedFromGraphEdits(t *testing.T) {
	// Editing g.X without declaring the node dirty must not corrupt the
	// cached E0 (the state copies X).
	g := testGraph(103, 150)
	m := MustNewModel(tinyConfig(9))
	st := m.ForwardFull(g)
	g.X.Set(0, 0, 99)
	m.UpdateIncremental(st, g, []int32{5}) // dirty set excludes node 0
	// Now declare it dirty; only then the edit lands.
	m.UpdateIncremental(st, g, []int32{0})
	want := m.Predict(g)
	if math.Abs(st.Probs[0]-want[0]) > 1e-9 {
		t.Errorf("node 0 after explicit dirty: %g want %g", st.Probs[0], want[0])
	}
}

func BenchmarkIncrementalUpdateOneInsertion(b *testing.B) {
	g := testGraph(104, 5000)
	m := MustNewModel(DefaultConfig())
	st := m.ForwardFull(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := int32(i % (g.N / 2))
		g.AddObservationPoint(target)
		m.UpdateIncremental(st, g, nil)
	}
}

func BenchmarkFullForwardPerInsertion(b *testing.B) {
	g := testGraph(104, 5000)
	m := MustNewModel(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := int32(i % (g.N / 2))
		g.AddObservationPoint(target)
		m.Forward(g)
	}
}
