package opi

import (
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// This file implements the paper's exact impact evaluation (Figure 6):
// the impact of inserting an observation point at node a is the
// reduction in positive predictions within a's fan-in cone, measured by
// actually performing the insertion on a scratch copy, refreshing the
// SCOAP attributes, and re-running inference. It is the precise but
// expensive variant of the static cone-count ranking used by default in
// RunFlow; FlowConfig.ExactImpact enables it when the candidate set is
// small enough (the iterative loop makes the cheap ranking converge to
// the same fixpoint, which the tests verify on small designs).

// ExactImpact measures the positive-prediction reduction in candidate's
// fan-in cone caused by a hypothetical observation point at candidate.
// probs are pred's current scores of g (the flow's session scores,
// which equal a full pass), so the evaluation pays one whole-graph
// inference, on the hypothetical graph. n, meas and g are not modified.
func ExactImpact(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph,
	pred core.IncrementalPredictor, probs []float64, threshold float64, candidate int32, coneLimit int) int {

	cone := n.FaninCone(candidate, coneLimit)

	// Hypothetical insertion on scratch copies.
	n2 := n.Clone()
	meas2 := meas.Clone()
	g2 := g.Clone()
	if _, _, err := InsertAndRefresh(n2, meas2, g2, candidate, n2.Levels()); err != nil {
		return 0 // uninsertable candidate has no impact
	}
	after := pred.PredictProbs(g2)

	countPos := func(p []float64) int {
		c := 0
		if p[candidate] >= threshold {
			c++
		}
		for _, u := range cone {
			if p[u] >= threshold {
				c++
			}
		}
		return c
	}
	impact := countPos(probs) - countPos(after)
	if impact < 0 {
		impact = 0
	}
	return impact
}

// selectByExactImpact ranks nodes, the round's positives in ascending
// id, by hypothetical-insertion impact and picks the round's targets
// with the same pickCovering as the static ranking.
func selectByExactImpact(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph,
	pred core.IncrementalPredictor, probs []float64, nodes []int32, cfg FlowConfig) []int32 {

	cones := positiveCones(n, nodes, cfg.ConeLimit)
	impact := make([]int, len(nodes))
	for i, v := range nodes {
		impact[i] = ExactImpact(n, meas, g, pred, probs, cfg.Threshold, v, cfg.ConeLimit)
	}
	return pickCovering(n, nodes, impact, cones, cfg.PerIteration)
}
