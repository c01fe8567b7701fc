package core

import (
	"math"
	"testing"
)

// f32Tol mirrors refcheck.F32Tolerance; the exhaustive 60-circuit
// differential suite lives in internal/refcheck, this file covers the
// in-package contract of the float32 path.
const f32Tol = 1e-4

// TestFloat32PredictMatchesFloat64 pins the basic narrowing contract:
// with the flag on, Predict and PredictProbs answer within f32Tol of the
// float64 path on every node, and turning the flag off restores the
// exact float64 scores.
func TestFloat32PredictMatchesFloat64(t *testing.T) {
	g := testGraph(41, 250)
	m := MustNewModel(tinyConfig(5))
	want := m.PredictProbs(g)

	f := m.Clone()
	f.SetFloat32Inference(true)
	if !f.Float32Inference() {
		t.Fatal("flag did not stick")
	}
	got := f.PredictProbs(g)
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > f32Tol {
			t.Fatalf("node %d: f32 %g vs f64 %g (off by %g)", v, got[v], want[v], d)
		}
	}

	// Clone propagates the flag; disabling restores exact f64 output.
	c := f.Clone()
	if !c.Float32Inference() {
		t.Fatal("Clone dropped the f32 flag")
	}
	c.SetFloat32Inference(false)
	back := c.PredictProbs(g)
	for v := range want {
		if back[v] != want[v] {
			t.Fatalf("node %d: f64 score not restored after disabling f32", v)
		}
	}
}

// TestFloat32MultiStage covers the cascade plumbing: the setter reaches
// every stage, the getter is the conjunction (and false for an empty
// cascade), and combined probabilities track the f64 cascade.
func TestFloat32MultiStage(t *testing.T) {
	g := testGraph(43, 250)
	ms := &MultiStage{
		Stages:      []*Model{MustNewModel(tinyConfig(6)), MustNewModel(tinyConfig(7))},
		FilterBelow: 0.25,
	}
	want := ms.PredictProbs(g)

	ms.SetFloat32Inference(true)
	if !ms.Float32Inference() {
		t.Fatal("cascade flag did not stick")
	}
	for i, s := range ms.Stages {
		if !s.Float32Inference() {
			t.Fatalf("stage %d missed the flag", i)
		}
	}
	got := ms.PredictProbs(g)
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > f32Tol {
			t.Fatalf("node %d: cascade f32 %g vs f64 %g", v, got[v], want[v])
		}
	}
	ms.SetFloat32Inference(false)
	if ms.Float32Inference() {
		t.Fatal("cascade flag did not clear")
	}

	empty := &MultiStage{}
	if empty.Float32Inference() {
		t.Fatal("empty cascade must report false")
	}
	empty.SetFloat32Inference(true) // must not panic
}

// TestFloat32WeightCacheInvalidation: CopyParamsFrom must drop the
// narrowed weights so the next f32 prediction reflects the new
// parameters.
func TestFloat32WeightCacheInvalidation(t *testing.T) {
	g := testGraph(47, 200)
	a := MustNewModel(tinyConfig(8))
	b := MustNewModel(tinyConfig(9))

	f := a.Clone()
	f.SetFloat32Inference(true)
	_ = f.PredictProbs(g) // builds the weights32 cache

	f.CopyParamsFrom(b)
	want := b.PredictProbs(g)
	got := f.PredictProbs(g)
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > f32Tol {
			t.Fatalf("node %d: stale weights32 survived CopyParamsFrom (off by %g)", v, d)
		}
	}

}
