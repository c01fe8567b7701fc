package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/circuitgen"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opi"
	"repro/internal/scoap"
)

// CoarsenRow is one cell of the coarsening grid: an FFR ratio evaluated
// end to end — train the cascade on coarsened designs, score the
// held-out design through the coarse graph, lift, and run the
// coarse-then-refine insertion flow.
type CoarsenRow struct {
	Ratio float64
	// Achieved is the supernode/cell ratio realized on the test design
	// (>= Ratio: FFR cannot merge past region boundaries).
	Achieved   float64
	SuperNodes int
	// LiftedF1 scores the lifted coarse predictions against the fine
	// ground-truth labels of the held-out design.
	LiftedF1 float64
	// InferNS is one coarse forward + lift on the test design.
	InferNS int64
	// Coverage is the fault coverage after the coarse-then-refine flow;
	// FlowNS its wall time.
	Coverage float64
	FlowNS   int64
}

// CoarsenResult is the speed/accuracy trade-off grid (the CTS-Bench
// question asked of this reproduction) plus the fine baseline every row
// is normalized against.
type CoarsenResult struct {
	FineNodes    int
	FineF1       float64
	FineInferNS  int64
	BaseCoverage float64 // test design before any insertion
	// ExactCoverage/ExactFlowNS are the exact incremental flow (ratio
	// 1.0 equivalent) driven by the fine-trained cascade.
	ExactCoverage float64
	ExactFlowNS   int64
	Rows          []CoarsenRow
}

// ExactGain is the exact flow's coverage gain, the denominator of every
// row's retention.
func (r CoarsenResult) ExactGain() float64 { return r.ExactCoverage - r.BaseCoverage }

// Retention returns row coverage gain / exact flow gain. It is
// undefined (ok false) when the exact flow gained nothing.
func (r CoarsenResult) Retention(row CoarsenRow) (ratio float64, ok bool) {
	return retention(row.Coverage-r.BaseCoverage, r.ExactGain())
}

// retention divides a flow's coverage gain by the exact flow's. A
// non-positive exact gain leaves the ratio undefined rather than
// reporting every coarse flow as full retention.
func retention(gain, exactGain float64) (float64, bool) {
	if exactGain > 0 {
		return gain / exactGain, true
	}
	return 0, false
}

// fmtRetention renders a retention ratio, "n/a" when undefined.
func fmtRetention(ratio float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", ratio)
}

// CoarsenRatios defines the grid.
var CoarsenRatios = []float64{1.0, 0.5, 0.25, 0.1}

// CoarsenGrid sweeps FFR coarsening ratios. For each cell the
// multi-stage cascade is trained on the *coarsened* training designs
// (train/test distributions must match), the held-out design is scored
// through its coarse graph and lifted back to cells for F1, and the
// coarse-then-refine flow's coverage and wall time are measured against
// the exact flow. Ratio 1.0 is the anchor: identity coarsening, so its
// row must reproduce the fine baseline exactly.
func CoarsenGrid(cfg Config) CoarsenResult {
	span := obs.StartSpan("experiments/coarsen")
	defer span.End()
	cfg = cfg.withDefaults()
	suite := cfg.suite()
	test := suite[len(suite)-1]
	train := suite[:len(suite)-1]

	tpg := fault.TPGConfig{MaxPatterns: 4 * cfg.Patterns, Seed: cfg.Seed + 7, StallWords: 64}
	res := CoarsenResult{FineNodes: test.Graph.N}

	// Fine baseline: cascade trained on the fine graphs, exact flow.
	var fineGraphs []*core.Graph
	for _, b := range train {
		fineGraphs = append(fineGraphs, b.Graph)
	}
	fineMS := trainCascade(cfg, fineGraphs)
	res.FineF1 = metrics.NewConfusion(fineMS.Predict(test.Graph), test.Graph.Labels).F1()
	res.FineInferNS = bestNS(func() { fineMS.PredictProbs(test.Graph) })
	res.BaseCoverage = opi.Evaluate(test.Netlist, tpg).Coverage

	exN := test.Netlist.Clone()
	exM := scoap.Compute(exN)
	exG := core.FromNetlist(exN, exM)
	start := time.Now()
	opi.RunFlow(exN, exM, exG, fineMS, opi.FlowConfig{PerIteration: 64})
	res.ExactFlowNS = time.Since(start).Nanoseconds()
	res.ExactCoverage = opi.Evaluate(exN, tpg).Coverage

	for _, ratio := range CoarsenRatios {
		res.Rows = append(res.Rows, coarsenCell(cfg, train, test.Netlist, test.Graph, ratio, tpg))
	}
	return res
}

// coarsenCell evaluates one ratio.
func coarsenCell(cfg Config, train []*dataset.Benchmark, testNet *netlist.Netlist, testGraph *core.Graph,
	ratio float64, tpg fault.TPGConfig) CoarsenRow {
	var coarseGraphs []*core.Graph
	for _, b := range train {
		c, err := coarsen.New(b.Netlist, ratio)
		if err != nil {
			panic(err)
		}
		coarseGraphs = append(coarseGraphs, c.ProjectGraph(b.Graph))
	}
	ms := trainCascade(cfg, coarseGraphs)

	ct, err := coarsen.New(testNet, ratio)
	if err != nil {
		panic(err)
	}
	cg := ct.ProjectGraph(testGraph)
	row := CoarsenRow{
		Ratio:      ratio,
		Achieved:   ct.AchievedRatio(),
		SuperNodes: ct.NumSuper(),
	}

	coarsePred := ms.Predict(cg)
	lifted := make([]int, testGraph.N)
	for v, s := range ct.Owner {
		lifted[v] = coarsePred[s]
	}
	row.LiftedF1 = metrics.NewConfusion(lifted, testGraph.Labels).F1()

	probs := make([]float64, 0, cg.N)
	liftBuf := make([]float64, testGraph.N)
	row.InferNS = bestNS(func() {
		probs = ms.PredictProbs(cg)
		ct.LiftInto(liftBuf, probs)
	})

	flowN := testNet.Clone()
	flowM := scoap.Compute(flowN)
	flowG := core.FromNetlist(flowN, flowM)
	start := time.Now()
	if _, err := opi.RunCoarseRefine(flowN, flowM, flowG, ms, opi.CoarseRefineConfig{
		Ratio: ratio,
		Flow:  opi.FlowConfig{PerIteration: 64},
	}); err != nil {
		panic(err)
	}
	row.FlowNS = time.Since(start).Nanoseconds()
	row.Coverage = opi.Evaluate(flowN, tpg).Coverage
	return row
}

// trainCascade fits the paper's 3-stage cascade on the given graphs.
func trainCascade(cfg Config, graphs []*core.Graph) *core.MultiStage {
	mopt := core.DefaultMultiStageOptions()
	mopt.ModelCfg = cfg.modelConfig(3, cfg.Seed+17)
	mopt.Train = cfg.trainOptions()
	ms, err := core.TrainMultiStage(graphs, mopt)
	if err != nil {
		panic(err)
	}
	return ms
}

// bestNS returns the fastest of three timed runs of f.
func bestNS(f func()) int64 {
	best := int64(-1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
			best = ns
		}
	}
	return best
}

// Fprint writes the grid with the fine baseline header.
func (r CoarsenResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Coarsening grid: nodes-reduced vs F1 vs inference time (held-out design)")
	fmt.Fprintf(w, "fine baseline: %d nodes, F1 %.3f, inference %.2fms, coverage %.2f%% -> %.2f%% (exact flow %.0fms)\n",
		r.FineNodes, r.FineF1, float64(r.FineInferNS)/1e6,
		100*r.BaseCoverage, 100*r.ExactCoverage, float64(r.ExactFlowNS)/1e6)
	fmt.Fprintf(w, "%6s %9s %7s %6s %7s %10s %9s %10s %9s\n",
		"Ratio", "Achieved", "Nodes", "Red%", "F1", "Infer(ms)", "Coverage", "Retention", "Flow(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6.2f %9.3f %7d %5.1f%% %7.3f %10.2f %8.2f%% %10s %9.0f\n",
			row.Ratio, row.Achieved, row.SuperNodes,
			100*(1-float64(row.SuperNodes)/float64(r.FineNodes)),
			row.LiftedF1, float64(row.InferNS)/1e6,
			100*row.Coverage, fmtRetention(r.Retention(row)), float64(row.FlowNS)/1e6)
	}
}

// CoarseRefineComparison is the large-design exact-vs-coarse-refine
// head-to-head: same design, same insertion budget, wall time and fault
// coverage for both flows. It backs the benchmark pair in bench_test.go
// and the acceptance bar that coarse-then-refine keeps >=95% of the
// exact flow's coverage gain at lower wall time.
type CoarseRefineComparison struct {
	Gates               int
	ExactOPs, CoarseOPs int
	// ExactNS and CoarseNS hold each flow's timed runs in run order.
	ExactNS, CoarseNS   [flowRepeats]int64
	BaseCov             float64
	ExactCov, CoarseCov float64
	AchievedRatio       float64
	CoarseNodes         int
}

// ExactGain and CoarseGain are the coverage improvements over the
// uninstrumented design.
func (c CoarseRefineComparison) ExactGain() float64  { return c.ExactCov - c.BaseCov }
func (c CoarseRefineComparison) CoarseGain() float64 { return c.CoarseCov - c.BaseCov }

// Retention is coarse gain / exact gain, undefined (ok false) when the
// exact flow gained nothing.
func (c CoarseRefineComparison) Retention() (ratio float64, ok bool) {
	return retention(c.CoarseGain(), c.ExactGain())
}

// Speedup is the exact flow's median wall time / the coarse flow's.
func (c CoarseRefineComparison) Speedup() float64 {
	exact, _, _ := wallMS(c.ExactNS)
	if coarse, _, _ := wallMS(c.CoarseNS); coarse > 0 {
		return exact / coarse
	}
	return 0
}

// wallMS returns the median, the fastest and the slowest of a flow's
// timed runs, in milliseconds.
func wallMS(ns [flowRepeats]int64) (median, lo, hi float64) {
	slices.Sort(ns[:])
	return float64(ns[flowRepeats/2]) / 1e6, float64(ns[0]) / 1e6, float64(ns[flowRepeats-1]) / 1e6
}

// flowRepeats is how many timed runs of each flow CompareCoarseRefine
// takes: single runs of two builds whose flows made identical decisions
// read speedups of 0.98x and 1.05x.
const flowRepeats = 3

// coarseRefineDesign generates the head-to-head's design: the
// circuitgen.OPIBench preset at cfg.Size gates (0 selects its 50k
// default) with the generator seeded by cfg.Seed.
func coarseRefineDesign(cfg Config) *netlist.Netlist {
	gen := circuitgen.OPIBench(cfg.Size)
	gen.Seed = cfg.Seed
	return circuitgen.Generate("opif", gen)
}

// CompareCoarseRefine runs the benchmark workload (the
// circuitgen.OPIBench design at cfg.Size gates, seeded by cfg.Seed)
// through the exact incremental flow and the FFR-0.25 coarse-then-refine
// flow on identical copies with the same insertion budget, then
// fault-simulates both results. Each flow is driven by a cascade trained
// at its own resolution on small labeled designs (seeded by cfg.Seed)
// and transferred inductively to the large design — trained predictions
// are what give the flows a real coverage gain for the retention ratio
// to measure. Each flow is timed over flowRepeats runs, and every run
// must pick the same targets.
func CompareCoarseRefine(cfg Config) CoarseRefineComparison {
	span := obs.StartSpan("experiments/coarse_refine")
	defer span.End()
	n := coarseRefineDesign(cfg)
	meas := scoap.Compute(n)
	g := core.FromNetlist(n, meas)

	const ratio = 0.25
	// Quick-scale designs with a longer epoch budget: transfer quality
	// to the 50k design is what decides both flows' gains, and 30
	// epochs (the smoke default) underfits the imbalanced classes.
	trainCfg := Config{Quick: true, Seed: cfg.Seed, Epochs: 120}.withDefaults()
	var fineGraphs, coarseGraphs []*core.Graph
	for _, b := range trainCfg.suite()[:3] {
		fineGraphs = append(fineGraphs, b.Graph)
		c, err := coarsen.New(b.Netlist, ratio)
		if err != nil {
			panic(err)
		}
		coarseGraphs = append(coarseGraphs, c.ProjectGraph(b.Graph))
	}
	// Each flow gets a cascade trained on its own resolution — the
	// coarse flow scores max-aggregated supernode features, which a
	// fine-trained model has never seen.
	fineMS := trainCascade(trainCfg, fineGraphs)
	coarseMS := trainCascade(trainCfg, coarseGraphs)

	tpg := fault.TPGConfig{MaxPatterns: 8192, Seed: 77, StallWords: 64}
	res := CoarseRefineComparison{Gates: n.NumGates()}
	res.BaseCov = opi.Evaluate(n, tpg).Coverage
	// Same insertion budget for both flows: gains then compare
	// placement quality at equal hardware cost.
	flow := opi.FlowConfig{PerIteration: 64, MaxInsertions: 1024}

	// The flows alternate, so that host drift hits both alike, and each
	// run gets fresh clones made outside its timer. The first run's
	// netlists are the ones fault-simulated.
	var exN, coN *netlist.Netlist
	var exTargets, coTargets []int32
	for r := 0; r < flowRepeats; r++ {
		n1, m1, g1 := n.Clone(), meas.Clone(), g.Clone()
		start := time.Now()
		exRes := opi.RunFlow(n1, m1, g1, fineMS, flow)
		res.ExactNS[r] = time.Since(start).Nanoseconds()

		n2, m2, g2 := n.Clone(), meas.Clone(), g.Clone()
		start = time.Now()
		coRes, err := opi.RunCoarseRefine(n2, m2, g2, coarseMS, opi.CoarseRefineConfig{
			Ratio: ratio,
			Flow:  flow,
		})
		res.CoarseNS[r] = time.Since(start).Nanoseconds()
		if err != nil {
			panic(err)
		}
		if r == 0 {
			exN, exTargets = n1, exRes.Targets
			coN, coTargets = n2, coRes.Targets
			res.AchievedRatio = coRes.AchievedRatio
			res.CoarseNodes = coRes.CoarseNodes
		}
		requireSameTargets("exact", exRes.Targets, exTargets)
		requireSameTargets("coarse-refine", coRes.Targets, coTargets)
	}
	res.ExactOPs = len(exTargets)
	res.ExactCov = opi.Evaluate(exN, tpg).Coverage
	res.CoarseOPs = len(coTargets)
	res.CoarseCov = opi.Evaluate(coN, tpg).Coverage
	return res
}

// requireSameTargets panics unless a repeated run of the named flow
// picked the first run's targets: the timed repeats must all be the same
// computation.
func requireSameTargets(flow string, got, first []int32) {
	if !slices.Equal(got, first) {
		panic("experiments: repeated " + flow + " flows picked different targets")
	}
}

// Fprint writes the head-to-head summary.
func (c CoarseRefineComparison) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Coarse-then-refine OPI vs exact incremental flow (%d gates)\n", c.Gates)
	fmt.Fprintf(w, "coarse graph: %d supernodes (achieved ratio %.3f)\n", c.CoarseNodes, c.AchievedRatio)
	fmt.Fprintf(w, "%-18s %6s %10s %13s %10s %8s\n", "Flow", "#OPs", "Wall(ms)", "min-max(ms)", "Coverage", "Gain")
	row := func(name string, ops int, ns [flowRepeats]int64, cov, gain float64) {
		median, lo, hi := wallMS(ns)
		fmt.Fprintf(w, "%-18s %6d %10.0f %13s %9.2f%% %+7.2f%%\n", name, ops, median,
			fmt.Sprintf("%.0f-%.0f", lo, hi), 100*cov, 100*gain)
	}
	row("exact-incremental", c.ExactOPs, c.ExactNS, c.ExactCov, c.ExactGain())
	row("coarse-refine", c.CoarseOPs, c.CoarseNS, c.CoarseCov, c.CoarseGain())
	fmt.Fprintf(w, "retention %s, speedup %.2fx (median wall times of %d runs each)\n",
		fmtRetention(c.Retention()), c.Speedup(), flowRepeats)
}
