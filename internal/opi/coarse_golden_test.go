package opi

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/core"
)

// coarseGolden is one pinned coarse-then-refine outcome below ratio 1.0.
// At ratio 1.0 the flow is pinned against RunFlow itself; below it there
// is no second flow to compare with, so the decisions are pinned here:
// the initial supernode count, the rounds, and the ordered targets (by
// count and FNV-1a hash). Every flow runs to zero positives.
type coarseGolden struct {
	seed        int64
	ratio       float64
	cascade     bool
	coarseNodes int
	iterations  int
	targets     int
	hash        uint64
}

var coarseGoldens = []coarseGolden{
	{7, 0.5, false, 1050, 8, 31, 0x75047c857624635f},
	{7, 0.5, true, 1050, 9, 34, 0x6563bae036cc5325},
	{8, 0.5, false, 1030, 6, 26, 0xb754fc0f6e7d3575},
	{8, 0.5, true, 1030, 9, 37, 0xd27c863577e9fa9c},
	{9, 0.5, false, 1059, 7, 32, 0x18041eb8d8bed27c},
	{9, 0.5, true, 1059, 7, 35, 0xe650f37b71ac2faa},
	{7, 0.25, false, 938, 8, 31, 0xe7c09f864ecc11a1},
	{7, 0.25, true, 938, 8, 32, 0x6cb13e602cbd8470},
	{8, 0.25, false, 934, 8, 29, 0x9981470b12d95b95},
	{8, 0.25, true, 934, 7, 32, 0x763f4faa9e8a9bc3},
	{9, 0.25, false, 954, 8, 31, 0xc978dc00cee3f378},
	{9, 0.25, true, 954, 6, 29, 0xebcb1b93d7b33b48},
}

func TestCoarseRefineReducedRatioGolden(t *testing.T) {
	for _, want := range coarseGoldens {
		name := fmt.Sprintf("seed%d/ratio%g/cascade=%v", want.seed, want.ratio, want.cascade)
		t.Run(name, func(t *testing.T) {
			got := runCoarseGolden(t, want.seed, want.ratio, want.cascade)
			if got != want {
				t.Fatalf("coarse flow decided\n  %+v\nwant\n  %+v", got, want)
			}
		})
	}
}

func runCoarseGolden(t *testing.T, seed int64, ratio float64, cascade bool) coarseGolden {
	t.Helper()
	n, meas, g := buildBench(t, seed, 1000)
	var pred core.IncrementalPredictor = core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 71})
	if cascade {
		pred = &core.MultiStage{
			Stages: []*core.Model{
				core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 81}),
				core.MustNewModel(core.Config{Dims: []int{8, 8}, FCDims: []int{8}, NumClasses: 2, Seed: 82}),
			},
			FilterBelow: 0.25,
		}
	}
	c, err := coarsen.New(n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	thr := flowThreshold(c.ProjectGraph(g), pred, 0.03)
	res, err := RunCoarseRefine(n, meas, g, pred, CoarseRefineConfig{
		Ratio: ratio,
		Flow:  FlowConfig{Threshold: thr, PerIteration: 8, MaxIterations: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPositives != 0 {
		t.Fatalf("flow stopped with %d positives after %d rounds", res.FinalPositives, res.Iterations)
	}
	h := fnv.New64a()
	for _, v := range res.Targets {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return coarseGolden{
		seed: seed, ratio: ratio, cascade: cascade,
		coarseNodes: res.CoarseNodes,
		iterations:  res.Iterations,
		targets:     len(res.Targets),
		hash:        h.Sum64(),
	}
}
