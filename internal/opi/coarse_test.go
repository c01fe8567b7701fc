package opi

import (
	"testing"

	"repro/internal/coarsen"
	"repro/internal/core"
)

// runCoarseEquivalence runs the exact incremental flow and the
// coarse-then-refine flow at ratio 1.0 on identical
// copies of one design and requires identical outcomes — the anchor
// invariant: at identity coarsening every coarse step degenerates to the
// corresponding RunFlow step bit-for-bit.
func runCoarseEquivalence(t *testing.T, seed int64, gates int, mk func() core.IncrementalPredictor) FlowResult {
	t.Helper()
	nExact, mExact, gExact := buildBench(t, seed, gates)
	nCoarse, mCoarse, gCoarse := buildBench(t, seed, gates)

	pred := mk()
	thr := flowThreshold(gExact, pred, 0.03)
	cfg := FlowConfig{Threshold: thr, PerIteration: 6, MaxIterations: 5}

	resExact := RunFlow(nExact, mExact, gExact, pred, cfg)
	resCoarse, err := RunCoarseRefine(nCoarse, mCoarse, gCoarse, pred, CoarseRefineConfig{
		Ratio: 1.0,
		Flow:  cfg,
	})
	if err != nil {
		t.Fatalf("seed %d: coarse flow rejected: %v", seed, err)
	}
	if want := nCoarse.NumGates() - len(resCoarse.Targets); resCoarse.CoarseNodes != want {
		t.Fatalf("seed %d: ratio 1.0 coarse graph has %d supernodes, want %d", seed, resCoarse.CoarseNodes, want)
	}
	if resExact.Iterations != resCoarse.Iterations {
		t.Fatalf("seed %d: iterations exact=%d coarse=%d", seed, resExact.Iterations, resCoarse.Iterations)
	}
	if resExact.FinalPositives != resCoarse.FinalPositives {
		t.Fatalf("seed %d: final positives exact=%d coarse=%d",
			seed, resExact.FinalPositives, resCoarse.FinalPositives)
	}
	if len(resExact.Targets) != len(resCoarse.Targets) {
		t.Fatalf("seed %d: target counts exact=%d coarse=%d",
			seed, len(resExact.Targets), len(resCoarse.Targets))
	}
	for i := range resExact.Targets {
		if resExact.Targets[i] != resCoarse.Targets[i] {
			t.Fatalf("seed %d: target %d differs: exact=%d coarse=%d",
				seed, i, resExact.Targets[i], resCoarse.Targets[i])
		}
	}
	return resExact
}

func TestCoarseRefineRatio1MatchesRunFlowModel(t *testing.T) {
	mk := func() core.IncrementalPredictor {
		return core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 71})
	}
	multi := 0
	for _, seed := range []int64{11, 12, 13} {
		if res := runCoarseEquivalence(t, seed, 1000, mk); res.Iterations >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no design ran more than one iteration; the coarse incremental path was never exercised")
	}
}

func TestCoarseRefineRatio1MatchesRunFlowMultiStage(t *testing.T) {
	mk := func() core.IncrementalPredictor {
		return &core.MultiStage{
			Stages: []*core.Model{
				core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 81}),
				core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 82}),
			},
			FilterBelow: 0.25,
		}
	}
	runCoarseEquivalence(t, 21, 1000, mk)
}

// TestCoarseMirrorMatchesReprojection drives real insertions through the
// live-coarsening mirror (AddObservationPoint + ReprojectRow) and checks
// the incrementally maintained coarse graph equals a from-scratch
// projection of the mutated fine graph, bit for bit.
func TestCoarseMirrorMatchesReprojection(t *testing.T) {
	n, meas, g := buildBench(t, 42, 600)
	c, err := coarsen.New(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cg := c.ProjectGraph(g)

	inserted := 0
	lv := append([]int32(nil), n.Levels()...)
	for v := int32(0); v < int32(len(lv)) && inserted < 5; v++ {
		if !insertable(n, v) {
			continue
		}
		_, touched, err := InsertAndRefresh(n, meas, g, v, lv)
		if err != nil {
			t.Fatal(err)
		}
		lv = append(lv, lv[v]+1)
		if _, err := c.AddObservationPoint(cg, v); err != nil {
			t.Fatal(err)
		}
		for _, u := range touched {
			c.ReprojectRow(cg, g, c.Owner[u])
		}
		inserted++
	}
	if inserted == 0 {
		t.Fatal("no insertable cell found")
	}
	if err := c.Validate(n); err != nil {
		t.Fatalf("live coarsening invalid after mirrored insertions: %v", err)
	}

	fresh := c.ProjectGraph(g)
	if cg.N != fresh.N {
		t.Fatalf("node counts differ: live %d, fresh %d", cg.N, fresh.N)
	}
	for s := 0; s < cg.N; s++ {
		lr, fr := cg.X.Row(s), fresh.X.Row(s)
		for k := range lr {
			if lr[k] != fr[k] {
				t.Fatalf("supernode %d attr %d: live %v, fresh %v", s, k, lr[k], fr[k])
			}
		}
		if cg.Labels[s] != fresh.Labels[s] {
			t.Fatalf("supernode %d label: live %d, fresh %d", s, cg.Labels[s], fresh.Labels[s])
		}
	}
	lp, fp := cg.Pred(), fresh.Pred()
	if len(lp.ColIdx) != len(fp.ColIdx) {
		t.Fatalf("edge counts differ: live %d, fresh %d", len(lp.ColIdx), len(fp.ColIdx))
	}
	for s := int32(0); s < int32(cg.N); s++ {
		lc, lval := cg.PredEntries(s)
		fc, fval := fresh.PredEntries(s)
		if len(lc) != len(fc) {
			t.Fatalf("supernode %d pred count: live %d, fresh %d", s, len(lc), len(fc))
		}
		for i := range lc {
			if lc[i] != fc[i] || lval[i] != fval[i] {
				t.Fatalf("supernode %d pred %d: live (%d,%v), fresh (%d,%v)",
					s, i, lc[i], lval[i], fc[i], fval[i])
			}
		}
	}
}

// TestCoarseRefineReducedRatioTerminates exercises the flow at a real
// reduction: it must terminate, insert only legal targets, and report
// the coarsening geometry.
func TestCoarseRefineReducedRatioTerminates(t *testing.T) {
	n, meas, g := buildBench(t, 7, 1200)
	fine := g.N
	pred := core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 5})
	thr := flowThreshold(g, pred, 0.05)
	res, err := RunCoarseRefine(n, meas, g, pred, CoarseRefineConfig{
		Ratio: 0.25,
		Flow:  FlowConfig{Threshold: thr, PerIteration: 4, MaxIterations: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoarseNodes >= fine {
		t.Fatalf("no reduction: %d supernodes for %d cells", res.CoarseNodes, fine)
	}
	if res.AchievedRatio < 0.25 || res.AchievedRatio > 1 {
		t.Fatalf("achieved ratio %v out of range", res.AchievedRatio)
	}
	if res.Iterations == 0 {
		t.Fatal("flow never iterated")
	}
	seen := make(map[int32]bool)
	for _, v := range res.Targets {
		if seen[v] {
			t.Fatalf("target %d inserted twice", v)
		}
		seen[v] = true
		if int(v) >= fine {
			t.Fatalf("target %d outside original design", v)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("netlist invalid after flow: %v", err)
	}
}

func TestCoarseRefineRejectsBadOptions(t *testing.T) {
	n, meas, g := buildBench(t, 3, 200)
	pred := core.MustNewModel(core.Config{Dims: []int{6}, FCDims: []int{6}, NumClasses: 2, Seed: 1})
	if _, err := RunCoarseRefine(n, meas, g, pred, CoarseRefineConfig{Ratio: 0}); err == nil {
		t.Fatal("ratio 0 accepted")
	}
}
