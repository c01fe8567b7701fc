package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// depthConfigs are models of depth 1, 2 and 3. At depth 1 the one
// encoder layer both aggregates from E_0 and feeds the head, so its
// session keeps no embedding beyond E_0.
func depthConfigs() []Config {
	return []Config{
		{Dims: []int{6}, FCDims: []int{8}, NumClasses: 2, Seed: 61},
		{Dims: []int{6, 7}, FCDims: []int{8}, NumClasses: 2, Seed: 62},
		{Dims: []int{6, 7, 9}, FCDims: []int{8}, NumClasses: 2, Seed: 63},
	}
}

// floatsHeld counts the floating-point values reachable from v through
// pointers, interfaces, struct fields and slices, up to each slice's
// length.
func floatsHeld(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return 1
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return floatsHeld(v.Elem())
	case reflect.Slice:
		if k := v.Type().Elem().Kind(); k == reflect.Float32 || k == reflect.Float64 {
			return v.Len()
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += floatsHeld(v.Index(i))
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += floatsHeld(v.Field(i))
		}
		return n
	}
	return 0
}

// TestSessionHoldsOnlyItsNextUpdatesInputs pins what a session keeps: at
// depth D, exactly N × (InputDim + Σ_{d<D-1} Dims[d] + 1) values, which
// are E_0 … E_{D-1} and the probabilities, when it opens and after
// updates that append rows. E_D and the logits are read by no update.
func TestSessionHoldsOnlyItsNextUpdatesInputs(t *testing.T) {
	for _, cfg := range depthConfigs() {
		t.Run(fmt.Sprint("D=", len(cfg.Dims)), func(t *testing.T) {
			perNode := InputDim + 1
			for _, k := range cfg.Dims[:len(cfg.Dims)-1] {
				perNode += k
			}
			g := testGraph(401, 300)
			m := MustNewModel(cfg)
			st := m.ForwardFull(g)
			check := func(when string) {
				t.Helper()
				if got := floatsHeld(reflect.ValueOf(st)); got != g.N*perNode {
					t.Fatalf("%s: the session holds %d values, want %d nodes × %d", when, got, g.N, perNode)
				}
			}
			check("opened")
			n := g.N
			rng := rand.New(rand.NewSource(4))
			for step := 0; step < 6; step++ {
				m.UpdateIncremental(st, g, mutate(g, rng, step))
			}
			if g.N == n {
				t.Fatal("the updates appended no rows; the test needs some")
			}
			check("after updates that appended rows")
		})
	}
}

// TestSessionMatchesFullPassAtEveryDepth: at depth 1, 2 and 3 a session
// stays == a full pass over the 84 mixed edits, and a CopyRun copy of it
// is == a session opened fresh on a clone of the graph.
func TestSessionMatchesFullPassAtEveryDepth(t *testing.T) {
	for _, cfg := range depthConfigs() {
		t.Run(fmt.Sprint("D=", len(cfg.Dims)), func(t *testing.T) {
			g := testGraph(402, 400)
			m := MustNewModel(cfg)
			run := m.NewIncremental(g)
			rng := rand.New(rand.NewSource(6))
			for step := 0; step < mutationSteps; step++ {
				run.Update(g, mutate(g, rng, step))
				if !sameProbs(run.Probs(), m.Predict(g)) {
					t.Fatalf("step %d: the session differs from a full pass", step)
				}
			}
			cp, ok := CopyRun(run, 8)
			if !ok {
				t.Fatal("CopyRun refused a Model session")
			}
			requireSameBits(t, "copy vs fresh session", sessionBits(t, cp), sessionBits(t, m.NewIncremental(g.Clone())))
		})
	}
}
