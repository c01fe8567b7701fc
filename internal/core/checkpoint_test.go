package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// trainTiny fits a tiny model so checkpoints carry non-initial weights.
func trainTiny(t *testing.T) (*Model, *Graph) {
	t.Helper()
	g := testGraph(3, 300)
	m := MustNewModel(tinyConfig(7))
	opt := DefaultTrainOptions()
	opt.Epochs = 3
	if _, err := Train(m, []*Graph{g}, [][]int{g.Labels}, opt); err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestCheckpointModelRoundTrip(t *testing.T) {
	m, g := trainTiny(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	pred, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := pred.(*Model)
	if !ok {
		t.Fatalf("loaded %T, want *Model", pred)
	}
	want, got := m.PredictProbs(g), m2.PredictProbs(g)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("node %d: prob %g != %g after round trip", v, got[v], want[v])
		}
	}
}

func TestCheckpointMultiStageRoundTripFile(t *testing.T) {
	m, g := trainTiny(t)
	ms := &MultiStage{Stages: []*Model{m, m.Clone()}, FilterBelow: 0.25}
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	if err := SaveCheckpointFile(path, ms); err != nil {
		t.Fatal(err)
	}
	pred, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ms2, ok := pred.(*MultiStage)
	if !ok {
		t.Fatalf("loaded %T, want *MultiStage", pred)
	}
	if len(ms2.Stages) != 2 || ms2.FilterBelow != 0.25 {
		t.Fatalf("stages=%d filter=%g", len(ms2.Stages), ms2.FilterBelow)
	}
	want, got := ms.PredictProbs(g), ms2.PredictProbs(g)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("node %d: prob %g != %g after round trip", v, got[v], want[v])
		}
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage stream loaded without error")
	}
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("junk bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFile(path); err == nil {
		t.Fatal("garbage file loaded without error")
	}
}

func TestSaveCheckpointRejectsUnknownPredictor(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, nil); err == nil {
		t.Fatal("nil predictor saved without error")
	}
	if err := SaveCheckpoint(&buf, &MultiStage{}); err == nil {
		t.Fatal("empty cascade saved without error")
	}
}

// TestCloneIsolation pins that Model.Clone and MultiStage.Clone copy the
// parameters: a clone scores as its original, and perturbing it leaves
// the original's scores as they were. The trainer's worker replicas rely
// on it.
func TestCloneIsolation(t *testing.T) {
	m, g := trainTiny(t)
	mc := m.Clone()
	checkCloneIsolation(t, "Model", g, m, mc, mc.Params()[0].Data)

	ms := &MultiStage{Stages: []*Model{m, m.Clone()}, FilterBelow: 0.25}
	msc := ms.Clone()
	if msc.FilterBelow != ms.FilterBelow || len(msc.Stages) != len(ms.Stages) {
		t.Fatalf("MultiStage clone: filter %g with %d stages, want %g with %d",
			msc.FilterBelow, len(msc.Stages), ms.FilterBelow, len(ms.Stages))
	}
	checkCloneIsolation(t, "MultiStage", g, ms, msc, msc.Stages[1].Params()[0].Data)
}

// checkCloneIsolation checks that clone scores g as orig does, then
// perturbs param, one of the clone's parameters, and checks that orig
// still scores as before.
func checkCloneIsolation(t *testing.T, name string, g *Graph, orig, clone IncrementalPredictor, param []float64) {
	t.Helper()
	want := orig.PredictProbs(g)
	got := clone.PredictProbs(g)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("%s node %d: clone prob %g != %g", name, v, got[v], want[v])
		}
	}
	param[0] += 1
	again := orig.PredictProbs(g)
	for v := range want {
		if want[v] != again[v] {
			t.Fatalf("%s node %d: original changed after clone perturbation", name, v)
		}
	}
}
