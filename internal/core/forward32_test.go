package core

import (
	"math"
	"testing"
)

// f32Tol mirrors refcheck.F32Tolerance; the exhaustive 60-circuit
// differential suite lives in internal/refcheck, this file covers the
// in-package contract of the float32 call.
const f32Tol = 1e-4

// TestFloat32PredictMatchesFloat64 pins the basic narrowing contract:
// PredictProbs32 answers within f32Tol of the float64 path on every
// node, and the float64 path answers exactly as before it.
func TestFloat32PredictMatchesFloat64(t *testing.T) {
	g := testGraph(41, 250)
	m := MustNewModel(tinyConfig(5))
	want := m.PredictProbs(g)
	got := m.PredictProbs32(g)
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > f32Tol {
			t.Fatalf("node %d: f32 %g vs f64 %g (off by %g)", v, got[v], want[v], d)
		}
	}
	for v, p := range m.PredictProbs(g) {
		if p != want[v] {
			t.Fatalf("node %d: f64 score changed after a float32 call", v)
		}
	}
}

// TestFloat32MultiStage covers the cascade's float32 call: it combines
// its stages' own float32 calls through the cascade decision, tracks the
// f64 cascade, and scores an empty cascade without panicking.
func TestFloat32MultiStage(t *testing.T) {
	g := testGraph(43, 250)
	ms := &MultiStage{
		Stages:      []*Model{MustNewModel(tinyConfig(6)), MustNewModel(tinyConfig(7))},
		FilterBelow: 0.25,
	}
	want := ms.PredictProbs(g)
	got := ms.PredictProbs32(g)
	stages := [][]float64{ms.Stages[0].PredictProbs32(g), ms.Stages[1].PredictProbs32(g)}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > f32Tol {
			t.Fatalf("node %d: cascade f32 %g vs f64 %g", v, got[v], want[v])
		}
		if got[v] != ms.cascadeProb(stages, v) {
			t.Fatalf("node %d: cascade f32 %g is not the cascade of its stages' f32 calls", v, got[v])
		}
	}

	if p := (&MultiStage{}).PredictProbs32(g); len(p) != g.N {
		t.Fatalf("empty cascade scored %d nodes, want %d", len(p), g.N)
	}
}

// TestFloat32WeightCacheInvalidation pins that the float32 call follows
// CopyParamsFrom: it narrows the current parameters on every call, so
// after a parameter swap it scores exactly as the source model. A
// narrowed-weight cache on the Model would fail it.
func TestFloat32WeightCacheInvalidation(t *testing.T) {
	g := testGraph(47, 200)
	a := MustNewModel(tinyConfig(8))
	b := MustNewModel(tinyConfig(9))

	f := a.Clone()
	_ = f.PredictProbs32(g)
	f.CopyParamsFrom(b)
	want := b.PredictProbs32(g)
	got := f.PredictProbs32(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: f32 score %g after CopyParamsFrom, want %g", v, got[v], want[v])
		}
	}
}
