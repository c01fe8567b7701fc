package core

import (
	"math/rand"
	"testing"
)

// sessionStates lists the cached states behind a *Model or *MultiStage
// session, one per stage.
func sessionStates(t *testing.T, run IncrementalRun) []*IncrementalState {
	t.Helper()
	switch r := run.(type) {
	case *modelRun:
		return []*IncrementalState{r.st}
	case *multiStageRun:
		return r.st.stages
	}
	t.Fatalf("session %T caches no states", run)
	return nil
}

// sessionSlices lists a session's live slices: its probabilities, then
// per stage E_0 … E_D, the logits and the stage probabilities.
func sessionSlices(t *testing.T, run IncrementalRun) [][]float64 {
	t.Helper()
	out := [][]float64{run.Probs()}
	for _, st := range sessionStates(t, run) {
		for _, e := range st.embeds {
			out = append(out, e.Data)
		}
		out = append(out, st.logits.Data, st.Probs)
	}
	return out
}

// sessionBits snapshots sessionSlices.
func sessionBits(t *testing.T, run IncrementalRun) [][]float64 {
	t.Helper()
	var out [][]float64
	for _, s := range sessionSlices(t, run) {
		out = append(out, append([]float64(nil), s...))
	}
	return out
}

// requireSameBits fails unless got and want hold == values, slice for
// slice.
func requireSameBits(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slices, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: slice %d has %d values, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: slice %d value %d is %g, want %g", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestCopyRunMatchesFreshSession: a copy of a session that has taken
// updates with appended rows, so that its matrices carry headroom, is ==
// a session opened on a clone of the graph, in probabilities, embeddings
// and logits. The copy and its source then update independently, and the
// copy's first update, which appends the 64 rows the copy was sized for,
// reslices every matrix instead of reallocating it and fills it to
// capacity: the copy reserves exactly the rows it is asked for.
func TestCopyRunMatchesFreshSession(t *testing.T) {
	for _, tc := range []struct {
		name string
		pred IncrementalPredictor
	}{
		{"Model", MustNewModel(tinyConfig(21))},
		{"MultiStage", testCascade(23)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(301, 300)
			src := tc.pred.NewIncremental(g)
			rng := rand.New(rand.NewSource(9))
			for step := 0; step < 12; step++ {
				src.Update(g, mutate(g, rng, step))
			}
			for _, s := range sessionSlices(t, src) {
				if cap(s) == len(s) {
					t.Fatal("the source session carries no headroom; the test needs some")
				}
			}

			cp, ok := CopyRun(src, 64)
			if !ok {
				t.Fatalf("CopyRun refused a %s session", tc.name)
			}
			requireSameBits(t, "copy vs fresh session", sessionBits(t, cp), sessionBits(t, tc.pred.NewIncremental(g.Clone())))

			srcBits := sessionBits(t, src)
			var arrays []*float64
			for _, s := range sessionSlices(t, cp) {
				arrays = append(arrays, &s[0])
			}
			gc := g.Clone()
			dirty := mutate(gc, rng, 0)
			for k := 0; k < 64; k++ {
				v := int32(rng.Intn(gc.N))
				for !insertableForTest(gc, v) {
					v = int32(rng.Intn(gc.N))
				}
				gc.AddObservationPoint(v)
			}
			cp.Update(gc, dirty)
			for i, s := range sessionSlices(t, cp) {
				if &s[0] != arrays[i] {
					t.Fatalf("slice %d: the copy's first update, 64 appended rows, reallocated it", i)
				}
				if cap(s) != len(s) {
					t.Fatalf("slice %d: %d values of headroom left after the 64 rows the copy was sized for", i, cap(s)-len(s))
				}
			}
			requireSameBits(t, "source after the copy's update", sessionBits(t, src), srcBits)
			requireSameBits(t, "updated copy vs fresh session", sessionBits(t, cp), sessionBits(t, tc.pred.NewIncremental(gc.Clone())))

			cpBits := sessionBits(t, cp)
			for step := 0; step < 4; step++ {
				src.Update(g, mutate(g, rng, step))
			}
			requireSameBits(t, "copy after the source's updates", sessionBits(t, cp), cpBits)
		})
	}
}

// TestCopyRunRefusesOtherSessions: a FullPass session caches nothing to
// copy, so CopyRun reports false and its caller opens a session instead.
func TestCopyRunRefusesOtherSessions(t *testing.T) {
	m := MustNewModel(tinyConfig(5))
	for _, run := range []IncrementalRun{nil, FullPass(m.PredictProbs).NewIncremental(testGraph(302, 100))} {
		if cp, ok := CopyRun(run, 64); ok || cp != nil {
			t.Fatalf("CopyRun(%T) = %v, %v; want nil, false", run, cp, ok)
		}
	}
}
