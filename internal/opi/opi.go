// Package opi implements observation point insertion: the paper's
// iterative GCN-guided flow (Section 4, Figure 7) and the industrial-tool
// baseline it is compared against in Table 3.
//
// The GCN flow alternates prediction and insertion: the classifier marks
// difficult-to-observe nodes, every positive is scored by its impact —
// the number of positive predictions inside its fan-in cone that one
// observation point at that node would cover (Figure 6) — the top-ranked
// locations receive observation points, the graph and SCOAP attributes
// are updated incrementally (in-place CSR updates and the attribute rows
// whose observability fell), and inference repeats until no positive
// predictions remain.
//
// The baseline models a conventional testability-analysis tool:
// SCOAP-observability-greedy insertion that repeatedly observes the
// currently worst-observable node until every node clears a threshold —
// the "approximate measurement" TPI school the paper cites. Both flows
// are scored by the same fault-simulation substrate (package fault).
package opi

import (
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scoap"
)

// Insertion-flow metrics (no-ops until obs.Enable; see
// docs/OBSERVABILITY.md). incremental_updates vs full_inferences is the
// Section 3.4 efficiency story in two numbers: how often the flow paid
// a session update (D-hop-bounded cached-embedding cost, except under
// core.FullPass) instead of a whole-graph forward pass.
var (
	opiIterations  = obs.GetCounter("opi.iterations")
	opiInsertions  = obs.GetCounter("opi.insertions")
	opiPositives   = obs.GetHistogram("opi.positives")
	opiIncremental = obs.GetCounter("opi.incremental_updates")
	opiFullInfer   = obs.GetCounter("opi.full_inferences")
)

// coneLimit caps the BFS fan-in cone used for impact scoring.
const coneLimit = 500

// FlowConfig controls the iterative GCN insertion flow.
type FlowConfig struct {
	// Threshold is the positive-prediction cutoff; default 0.5.
	Threshold float64
	// PerIteration caps insertions per iteration (the paper's "top
	// ranked locations"); default 64.
	PerIteration int
	// MaxIterations bounds the outer loop; default 64.
	MaxIterations int
	// MaxInsertions bounds the total number of observation points;
	// 0 means unlimited.
	MaxInsertions int
	// ExactImpact ranks a round by the paper's hypothetical-insertion
	// impact (Figure 6) instead of the static cone count when the round
	// has at most this many positives; 0 means never. Expensive: one
	// whole-graph inference per candidate.
	ExactImpact int
	// Progress, when non-nil, is invoked once per iteration.
	Progress func(iter, positives, insertedSoFar int)
}

func (c FlowConfig) withDefaults() FlowConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.PerIteration <= 0 {
		c.PerIteration = 64
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 64
	}
	return c
}

// FlowResult reports the insertion flow outcome.
type FlowResult struct {
	// Targets lists the observed nodes in insertion order.
	Targets []int32
	// Iterations is the number of predict/insert rounds executed.
	Iterations int
	// FinalPositives is the number of positive predictions remaining at
	// exit (0 unless a bound stopped the flow early).
	FinalPositives int
}

// RunFlow executes the iterative insertion flow, mutating the netlist,
// measures and graph in place.
//
// The flow scores through one session of pred: it pays full-graph
// inference once, when the session opens, and every later round feeds
// the dirty set of the previous round's insertions — the new OP nodes
// plus the refreshed attribute rows — into the session's update. For
// *core.Model and *core.MultiStage that is the cached-embedding update,
// whose cost is bounded by the D-hop neighborhood of the mutations
// instead of the whole graph (Section 3.4's efficiency argument applied
// to the Section 4 loop); an update is == to a full pass, which
// core.FullPass runs every round instead.
func RunFlow(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, pred core.IncrementalPredictor, cfg FlowConfig) FlowResult {
	span := obs.StartSpan("opi")
	defer span.End()
	opiFullInfer.Inc()
	return runFlow(span, n, meas, g, pred, pred.NewIncremental(g), cfg)
}

// RunFlowOn is RunFlow over run, a session of pred already open on g,
// instead of a session it opens: the serving layer passes a copy of a
// cached design's warm session (core.CopyRun), so the flow pays no
// whole-graph forward at all and opi.full_inferences does not count it.
// The result is RunFlow's, because an update is == a full pass.
func RunFlowOn(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, pred core.IncrementalPredictor, run core.IncrementalRun, cfg FlowConfig) FlowResult {
	span := obs.StartSpan("opi")
	defer span.End()
	return runFlow(span, n, meas, g, pred, run, cfg)
}

// runFlow is the loop of RunFlow and RunFlowOn, under their opi span.
func runFlow(span *obs.Span, n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, pred core.IncrementalPredictor, run core.IncrementalRun, cfg FlowConfig) FlowResult {
	cfg = cfg.withDefaults()
	res := FlowResult{}
	observed := observedSet(n)
	var dirty []int32    // attribute rows refreshed since the last update
	var nodes []int32    // the round's positives in ascending id, reused
	var positives []bool // and marked over the cells, reused

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		iterSpan := span.Child("iteration")
		opiIterations.Inc()
		if iter > 0 {
			opiIncremental.Inc()
			run.Update(g, dirty)
			dirty = dirty[:0]
		}
		probs := run.Probs()
		observed = growMask(observed, n.NumGates())
		positives = growMask(positives[:0], n.NumGates())
		nodes = nodes[:0]
		for v := 0; v < g.N && v < n.NumGates(); v++ {
			if probs[v] >= cfg.Threshold && insertable(n, int32(v)) && !observed[v] {
				positives[v] = true
				nodes = append(nodes, int32(v))
			}
		}
		res.Iterations = iter + 1
		res.FinalPositives = len(nodes)
		opiPositives.Observe(int64(len(nodes)))
		if cfg.Progress != nil {
			cfg.Progress(iter, len(nodes), len(res.Targets))
		}
		if len(nodes) == 0 {
			iterSpan.End()
			return res
		}

		rankSpan := iterSpan.Child("rank")
		var selected []int32
		if len(nodes) <= cfg.ExactImpact {
			selected = selectByExactImpact(n, meas, g, pred, probs, nodes, cfg)
		} else {
			selected = selectByImpact(n, nodes, positives, cfg)
		}
		rankSpan.End()
		if cfg.MaxInsertions > 0 && len(res.Targets)+len(selected) > cfg.MaxInsertions {
			selected = selected[:cfg.MaxInsertions-len(res.Targets)]
		}
		if len(selected) == 0 {
			iterSpan.End()
			return res
		}
		for _, v := range selected {
			// The netlist extends its cached levels per insertion, so
			// this is a lookup, not a recomputation.
			_, touched, err := InsertAndRefresh(n, meas, g, v, n.Levels())
			if err != nil {
				// selected only contains insertable nodes, so this is a
				// programming error, not an input error.
				panic(err)
			}
			dirty = append(dirty, touched...)
			observed[v] = true
			res.Targets = append(res.Targets, v)
		}
		opiInsertions.Add(int64(len(selected)))
		iterSpan.End()
		if cfg.MaxInsertions > 0 && len(res.Targets) >= cfg.MaxInsertions {
			return res
		}
	}
	return res
}

// selectByImpact ranks positive nodes by impact (1 + positives in the
// fan-in cone) and picks the round's targets with pickCovering. nodes
// lists the positives in ascending id, and positives marks them over
// n's cells.
//
// The per-positive fan-in-cone BFS is the flow's second hot spot once
// inference runs incrementally, so the cones are extracted on the shared
// par helpers (FaninCone only reads immutable netlist structure, never
// the lazy caches, so concurrent traversals are safe). Each cone depends
// only on its node, so the ranking does not depend on the worker count.
func selectByImpact(n *netlist.Netlist, nodes []int32, positives []bool, cfg FlowConfig) []int32 {
	cones := positiveCones(n, nodes)
	impact := make([]int, len(nodes))
	for i, cone := range cones {
		impact[i] = 1
		for _, u := range cone {
			if positives[u] {
				impact[i]++
			}
		}
	}
	return pickCovering(n, nodes, impact, cones, cfg.PerIteration)
}

// positiveCones returns the fan-in cone of each of nodes, cut at
// coneLimit cells, extracted in parallel.
func positiveCones(n *netlist.Netlist, nodes []int32) [][]int32 {
	cones := &coneJob{n: n, nodes: nodes, cones: make([][]int32, len(nodes))}
	par.For(0, len(nodes), cones)
	return cones.cones
}

// pickCovering returns up to limit of nodes in descending impact, ties
// by ascending id, skipping a node inside the cone of an already-picked
// node so a single funnel is not observed at every node simultaneously.
// impact[i] and cones[i] belong to nodes[i], cells of n.
func pickCovering(n *netlist.Netlist, nodes []int32, impact []int, cones [][]int32, limit int) []int32 {
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if impact[i] != impact[j] {
			return impact[i] > impact[j]
		}
		return nodes[i] < nodes[j]
	})
	covered := make([]bool, n.NumGates())
	var selected []int32
	for _, i := range order {
		if len(selected) >= limit {
			break
		}
		if covered[nodes[i]] {
			continue
		}
		selected = append(selected, nodes[i])
		for _, u := range cones[i] {
			covered[u] = true
		}
	}
	return selected
}

// coneJob extracts the fan-in cone of every listed node.
type coneJob struct {
	n     *netlist.Netlist
	nodes []int32
	cones [][]int32
}

func (j *coneJob) Do(i int) { j.cones[i] = j.n.FaninCone(j.nodes[i], coneLimit) }

// InsertAndRefresh performs one observation point insertion with all
// incremental updates: netlist node+edge, the SCOAP relaxation of the
// cells whose observability falls, the in-place CSR updates, and
// attribute rows of affected nodes. lv holds the logic levels of at
// least the pre-existing nodes (n.Levels(), which an OP leaves
// unchanged). No step walks the target's fan-in cone or rebuilds
// a whole-design structure.
// It returns the new OP node and the nodes whose attribute rows actually
// changed — the dirty set for cached-embedding inference (the slice to
// hand core.IncrementalRun.Update). An OP changes only observability
// (never controllability or levels), the SCOAP relaxation reports
// exactly the cells it improved, and clamping collapses many raw
// improvements to the same attribute value, so the dirty set is
// typically far smaller than the fan-in cone.
//
// The error is non-nil only when target cannot legally receive an
// observation point (e.g. it is an Input, Output or Obs cell); nothing
// has been mutated in that case. It is exported for consumers that
// replay edit deltas against a cached (netlist, measures, graph,
// incremental-run) bundle — the serving layer's /v1/score/delta path —
// so that every caller applies the exact same insertion recipe RunFlow
// uses.
func InsertAndRefresh(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, target int32, lv []int32) (int32, []int32, error) {
	op, err := n.InsertObservationPoint(target)
	if err != nil {
		return -1, nil, err
	}
	changed := meas.UpdateAfterObservationPoint(n, op)
	g.AddObservationPoint(target)
	dirty := make([]int32, 0, len(changed))
	for _, u := range changed {
		old := g.X.At(int(u), 3)
		g.SetAttributes(u, float64(lv[u]), float64(meas.CC0[u]),
			float64(meas.CC1[u]), clampCO(meas.CO[u]))
		if g.X.At(int(u), 3) != old {
			dirty = append(dirty, u)
		}
	}
	return op, dirty, nil
}

func clampCO(co int32) float64 {
	if co > core.COClamp {
		co = core.COClamp
	}
	return float64(co)
}

// insertable reports whether a node may receive an observation point.
func insertable(n *netlist.Netlist, v int32) bool {
	switch n.Type(v) {
	case netlist.Input, netlist.Output, netlist.Obs:
		return false
	}
	return true
}

// observedSet marks, over n's cells, the nodes that already drive an
// observation point. Obs cells without fanin (a malformed netlist —
// nothing in this repository builds one, but inputs arrive from parsers
// and fuzzers too) observe nothing and are skipped rather than panicking
// the flow.
func observedSet(n *netlist.Netlist) []bool {
	out := make([]bool, n.NumGates())
	for _, op := range n.ObservationPoints() {
		if fi := n.Fanin(op); len(fi) > 0 {
			out[fi[0]] = true
		}
	}
	return out
}

// growMask extends mask, a mark per cell, to cells cells, the new ones
// unmarked; growMask(mask[:0], cells) clears it, reusing its array.
func growMask(mask []bool, cells int) []bool {
	return append(mask, make([]bool, cells-len(mask))...)
}

// BaselineConfig controls the industrial-tool stand-in.
type BaselineConfig struct {
	// COThreshold marks a node difficult when its SCOAP observability
	// exceeds it. Use CalibrateCOThreshold to derive it from labels.
	COThreshold int32
	// PerIteration caps insertions per round; default 64.
	PerIteration int
	// MaxIterations bounds the loop; default 256.
	MaxIterations int
}

// IndustrialBaseline repeatedly observes the worst-observability nodes
// (SCOAP CO above the threshold), recomputing measures incrementally,
// until every node clears the threshold. Returns the observed targets.
func IndustrialBaseline(n *netlist.Netlist, meas *scoap.Measures, cfg BaselineConfig) []int32 {
	if cfg.PerIteration <= 0 {
		cfg.PerIteration = 64
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 256
	}
	var targets []int32
	observed := observedSet(n)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		observed = growMask(observed, n.NumGates())
		type scored struct {
			node int32
			co   int32
		}
		var difficult []scored
		for v := int32(0); v < int32(n.NumGates()); v++ {
			if meas.CO[v] > cfg.COThreshold && insertable(n, v) && !observed[v] {
				difficult = append(difficult, scored{v, meas.CO[v]})
			}
		}
		if len(difficult) == 0 {
			return targets
		}
		sort.Slice(difficult, func(i, j int) bool {
			if difficult[i].co != difficult[j].co {
				return difficult[i].co > difficult[j].co
			}
			return difficult[i].node < difficult[j].node
		})
		inserted := 0
		for _, d := range difficult {
			if inserted >= cfg.PerIteration {
				break
			}
			// The measure may have improved due to an insertion earlier in
			// this round; re-check before spending an observation point.
			if meas.CO[d.node] <= cfg.COThreshold {
				continue
			}
			op, err := n.InsertObservationPoint(d.node)
			if err != nil {
				continue
			}
			meas.UpdateAfterObservationPoint(n, op)
			observed[d.node] = true
			targets = append(targets, d.node)
			inserted++
		}
		if inserted == 0 {
			return targets
		}
	}
	return targets
}

// SimGreedyConfig controls the exact-simulation baseline.
type SimGreedyConfig struct {
	// Patterns is the per-round observability simulation budget; use the
	// same budget as labeling for a tool whose difficulty criterion
	// matches the ground truth.
	Patterns int
	// Threshold is the difficulty cutoff (fraction of patterns).
	Threshold float64
	// PerIteration caps insertions per round; default 64.
	PerIteration int
	// MaxIterations bounds the loop; default 256.
	MaxIterations int
	// Seed drives the random patterns.
	Seed int64
}

// SimulationGreedy is the stronger industrial-tool model: exact
// fault-simulation-based TPI (the other school of TPI methods the paper
// cites). Each round it measures true random-pattern observability,
// inserts observation points at the worst still-difficult nodes, and
// re-simulates, so insertions that transitively fixed upstream logic are
// never duplicated. Because its difficulty criterion is the labeling
// criterion itself, it is an oracle-quality baseline; the GCN flow can
// only win on the *placement* of points, not on knowing which nodes are
// difficult.
func SimulationGreedy(n *netlist.Netlist, cfg SimGreedyConfig) []int32 {
	if cfg.PerIteration <= 0 {
		cfg.PerIteration = 64
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 256
	}
	if cfg.Patterns <= 0 {
		cfg.Patterns = 2048
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.005
	}
	cut := cfg.Threshold * float64(cfg.Patterns)
	var targets []int32
	observed := observedSet(n)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		observed = growMask(observed, n.NumGates())
		counts := fault.ObservabilityCounts(n, cfg.Patterns, cfg.Seed+int64(iter))
		type scored struct {
			node  int32
			count int
		}
		var difficult []scored
		for v := int32(0); v < int32(n.NumGates()); v++ {
			if float64(counts[v]) < cut && insertable(n, v) && !observed[v] {
				difficult = append(difficult, scored{v, counts[v]})
			}
		}
		if len(difficult) == 0 {
			return targets
		}
		sort.Slice(difficult, func(i, j int) bool {
			if difficult[i].count != difficult[j].count {
				return difficult[i].count < difficult[j].count
			}
			return difficult[i].node < difficult[j].node
		})
		k := cfg.PerIteration
		if k > len(difficult) {
			k = len(difficult)
		}
		inserted := 0
		for _, d := range difficult[:k] {
			if _, err := insertOP(n, d.node); err != nil {
				continue
			}
			observed[d.node] = true
			targets = append(targets, d.node)
			inserted++
		}
		if inserted == 0 {
			// Every insertion failed; the next round would simulate the
			// same patterns against the same netlist and fail identically,
			// so bail instead of burning MaxIterations full fault
			// simulations on zero progress (IndustrialBaseline has the
			// same guard).
			return targets
		}
	}
	return targets
}

// insertOP indirects observation-point insertion so tests can force
// failure paths; production use is always the netlist method.
var insertOP = func(n *netlist.Netlist, target int32) (int32, error) {
	return n.InsertObservationPoint(target)
}

// CalibrateCOThreshold picks the baseline tool's difficulty threshold
// from labeled data: the q-quantile (e.g. 0.1) of SCOAP observability
// over the positive nodes, so that the tool would flag (1-q) of the truly
// difficult nodes as difficult. q is clamped to [0, 1]; values outside
// that range would index out of the sorted sample.
func CalibrateCOThreshold(meas *scoap.Measures, labels []int, q float64) int32 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	var cos []int32
	for v, l := range labels {
		if l == 1 {
			cos = append(cos, meas.CO[v])
		}
	}
	if len(cos) == 0 {
		return 1 << 20
	}
	sort.Slice(cos, func(i, j int) bool { return cos[i] < cos[j] })
	idx := int(q * float64(len(cos)-1))
	return cos[idx]
}

// Evaluation bundles the Table 3 metrics for one flow on one design.
type Evaluation struct {
	OPs      int
	Patterns int
	Coverage float64
}

// Evaluate runs the shared fault-simulation scoring on a netlist after
// insertion: number of observation points present, test patterns used
// and stuck-at fault coverage.
func Evaluate(n *netlist.Netlist, tpg fault.TPGConfig) Evaluation {
	res := fault.GenerateTests(n, tpg)
	return Evaluation{
		OPs:      n.CountType(netlist.Obs),
		Patterns: res.PatternsUsed,
		Coverage: res.Coverage,
	}
}

// EvaluateATPG scores a netlist with the full commercial-style flow:
// random patterns plus PODEM deterministic top-up. Coverage is the
// test coverage over provably testable faults, the number a commercial
// tool reports.
func EvaluateATPG(n *netlist.Netlist, cfg fault.ATPGConfig) Evaluation {
	res := fault.GenerateTestsWithATPG(n, cfg)
	return Evaluation{
		OPs:      n.CountType(netlist.Obs),
		Patterns: res.PatternsUsed,
		Coverage: res.TestCoverage,
	}
}
