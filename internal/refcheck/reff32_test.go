package refcheck

import (
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/scoap"
)

// TestDifferentialFloat32Inference is the acceptance gate for the f32
// scoring path: 60 seeded circuits, each scored by a single Model and by
// a 3-stage MultiStage cascade in both precisions, with per-node
// divergence bounded by F32Tolerance and cascade decisions re-checked
// against their thresholds.
func TestDifferentialFloat32Inference(t *testing.T) {
	const circuits = 60
	configs := RandomConfigs(33, circuits)

	// Xavier-initialized weights at varied seeds stand in for trained
	// ones: the differential property (f32 tracks f64) is
	// weight-agnostic, and skipping training keeps the suite fast.
	cfg := core.DefaultConfig()
	model := core.MustNewModel(cfg)

	msCfg := cfg
	ms := &core.MultiStage{FilterBelow: 0.25}
	for s := 0; s < 3; s++ {
		msCfg.Seed = int64(100 + s)
		ms.Stages = append(ms.Stages, core.MustNewModel(msCfg))
	}

	for i, c := range configs {
		n := circuitgen.Generate("f32", c)
		if err := CheckModelF32(model, n); err != nil {
			t.Errorf("circuit %d (gates=%d): %v", i, n.NumGates(), err)
		}
		if err := CheckMultiStageF32(ms, n); err != nil {
			t.Errorf("circuit %d (gates=%d): cascade: %v", i, n.NumGates(), err)
		}
	}
}

// TestFloat32WeightInvalidation pins that the float32 call follows
// CopyParamsFrom: it narrows the current parameters on every call, so
// after a parameter swap it scores exactly as the model the parameters
// came from. A narrowed-weight cache on the Model would fail it.
func TestFloat32WeightInvalidation(t *testing.T) {
	n := circuitgen.Generate("inval", circuitgen.Config{Seed: 4, NumGates: 80, NumPIs: 10})
	cfg := core.DefaultConfig()
	a := core.MustNewModel(cfg)
	cfg.Seed = 99
	b := core.MustNewModel(cfg)

	if err := CheckModelF32(a, n); err != nil {
		t.Fatalf("before param swap: %v", err)
	}
	// Score once, swap parameters, score again: the f32 prediction must
	// now be model b's, not model a's.
	g := core.FromNetlist(n, scoap.Compute(n))
	f32 := a.Clone()
	_ = f32.PredictProbs32(g)
	f32.CopyParamsFrom(b)
	got := f32.PredictProbs32(g)
	want := b.PredictProbs32(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: float32 score %g after CopyParamsFrom, want %g", v, got[v], want[v])
		}
	}
	if err := CheckModelF32(f32, n); err != nil {
		t.Fatalf("after param swap: %v", err)
	}
}
