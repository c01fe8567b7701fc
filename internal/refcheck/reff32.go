package refcheck

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
	"repro/internal/tensor"
)

// This file is the differential harness for the float32 inference mode
// (DESIGN.md decision 10): the f32 scoring path must track the exact
// float64 path within F32Tolerance on every node of every seeded
// circuit, and the MultiStage cascade must make the same filter/classify
// decisions wherever the float64 probability is not sitting on a
// threshold.

// F32Tolerance bounds the acceptable relative difference between the
// float32 and float64 inference paths. Float32 carries ~7 significant
// digits; three aggregate+encode layers plus the FC head accumulate to
// at most ~1e-5 on the probability scale, so anything above 1e-4 is a
// real kernel bug, not rounding.
const F32Tolerance = 1e-4

// ThresholdMargin is how far a float64 probability must sit from a
// decision threshold before the f32 path is required to make the same
// call; within the margin either decision is legitimate rounding.
const ThresholdMargin = 1e-3

// CheckModelF32 runs the exact float64 Predict and the float32 scoring
// path of one model over a netlist's graph and returns an error if any
// node's probability diverges beyond F32Tolerance.
func CheckModelF32(m *core.Model, n *netlist.Netlist) error {
	g := core.FromNetlist(n, scoap.Compute(n))
	p64 := m.Predict(g)
	c := m.Clone()
	c.SetFloat32Inference(true)
	p32 := c.Predict(g)
	return compareProbs("Model", p64, p32)
}

// CheckMultiStageF32 runs a cascade in both precisions and checks (a)
// the combined probabilities agree within F32Tolerance, and (b) the
// cascade decisions — stage filtering at FilterBelow and the final 0.5
// classification — agree on every node whose float64 stage probability
// is at least ThresholdMargin away from the threshold.
func CheckMultiStageF32(ms *core.MultiStage, n *netlist.Netlist) error {
	g := core.FromNetlist(n, scoap.Compute(n))
	p64 := ms.PredictProbs(g)
	c := ms.Clone()
	c.SetFloat32Inference(true)
	if !c.Float32Inference() {
		return fmt.Errorf("SetFloat32Inference(true) did not stick on the cascade clone")
	}
	p32 := c.PredictProbs(g)
	if err := compareProbs("MultiStage", p64, p32); err != nil {
		return err
	}
	// Per-stage threshold re-check: filtering decisions must agree off
	// the margin. Stage probabilities are recomputed here (stages are
	// independent GCNs, so this is exactly what PredictProbs consumed).
	for s, stage := range ms.Stages {
		s64 := stage.Predict(g)
		stage32 := c.Stages[s]
		s32 := stage32.Predict(g)
		thresh := ms.FilterBelow
		if s == len(ms.Stages)-1 {
			thresh = 0.5
		}
		for v := range s64 {
			if math.Abs(s64[v]-thresh) < ThresholdMargin {
				continue
			}
			if (s64[v] < thresh) != (s32[v] < thresh) {
				return fmt.Errorf("stage %d node %d: decision flip at threshold %.3g (f64 %.6g vs f32 %.6g)",
					s, v, thresh, s64[v], s32[v])
			}
		}
	}
	return nil
}

func compareProbs(kind string, p64, p32 []float64) error {
	if len(p64) != len(p32) {
		return fmt.Errorf("%s: f32 path returned %d probs, f64 %d", kind, len(p32), len(p64))
	}
	for v := range p64 {
		den := 1.0
		if m := math.Abs(p64[v]); m > den {
			den = m
		}
		if d := math.Abs(p64[v]-p32[v]) / den; d > F32Tolerance {
			return fmt.Errorf("%s node %d: f32 prob %.8g diverges from f64 %.8g by %g (tolerance %g)",
				kind, v, p32[v], p64[v], d, F32Tolerance)
		}
	}
	return nil
}

// MaxRelDiff32 is MaxRelDiff with a float32 left-hand side (widened
// exactly), for comparing f32 kernel outputs against float64 references.
func MaxRelDiff32(a *tensor.Dense32, b *tensor.Dense) float64 { return MaxRelDiff(a.ToDense(), b) }
