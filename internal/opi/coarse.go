package opi

// Coarse-then-refine observation point insertion: the ROADMAP's
// pre-filter idea built on internal/coarsen. The GCN never sees the fine
// graph — every prediction runs on the coarse supergraph (a fraction of
// the nodes, so both the one-time full inference and the per-iteration
// incremental updates shrink proportionally), and the exact machinery is
// spent only where the coarse model points: candidate cells inside
// positive regions are ranked by the same fan-in-cone impact heuristic
// as RunFlow, and every insertion updates the fine netlist, SCOAP
// measures and fine graph exactly (InsertAndRefresh). The coarsening is
// kept live across insertions — each new observation point becomes a
// singleton supernode and the touched regions' projected rows are
// recomputed — so the coarse graph stays exactly equal to the projection
// of the evolving fine graph.
//
// At ratio 1.0 the supergraph is the fine graph and every step
// degenerates to RunFlow's: the flow is then bit-identical to
// the exact incremental flow, the anchor the differential tests enforce.

import (
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scoap"
)

// CoarseRefineConfig controls RunCoarseRefine.
type CoarseRefineConfig struct {
	// Ratio is the FFR coarsening ratio in (0, 1] (see coarsen.New).
	Ratio float64
	// Flow carries the shared insertion-flow knobs (threshold,
	// per-iteration cap, cone limit, iteration/insertion bounds,
	// progress hook). ExactImpact and the incremental switches are
	// ignored: prediction always runs incrementally on the coarse graph.
	Flow FlowConfig
}

// CoarseRefineResult extends FlowResult with the coarsening geometry the
// speed/accuracy trade-off is measured against.
type CoarseRefineResult struct {
	FlowResult
	// CoarseNodes is the supernode count of the initial coarsening
	// (before per-insertion growth).
	CoarseNodes int
	// AchievedRatio is supernodes/cells actually realized.
	AchievedRatio float64
}

// RunCoarseRefine executes the coarse-then-refine insertion flow,
// mutating the netlist, measures and fine graph in place exactly like
// RunFlow. pred must support incremental updates (*core.Model and
// *core.MultiStage both do); it is only ever invoked on the coarse
// graph. The error is non-nil only for an invalid coarsening ratio.
func RunCoarseRefine(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, pred core.IncrementalPredictor, cfg CoarseRefineConfig) (CoarseRefineResult, error) {
	span := obs.StartSpan("opi.coarse")
	defer span.End()
	fc := cfg.Flow.withDefaults()

	c, err := coarsen.New(n, cfg.Ratio)
	if err != nil {
		return CoarseRefineResult{}, err
	}
	res := CoarseRefineResult{
		CoarseNodes:   c.NumSuper(),
		AchievedRatio: c.AchievedRatio(),
	}
	cg := c.ProjectGraph(g)
	observed := observedSet(n)

	opiFullInfer.Inc()
	run := pred.NewIncremental(cg)
	var dirty []int32 // coarse rows whose projection changed since last update

	for iter := 0; iter < fc.MaxIterations; iter++ {
		iterSpan := span.Child("iteration")
		opiIterations.Inc()
		var probs []float64
		if iter == 0 {
			probs = run.Probs()
		} else {
			opiIncremental.Inc()
			run.Update(cg, dirty)
			dirty = dirty[:0]
			probs = run.Probs()
		}

		// Refinable member cells of the positive regions. A region with
		// no insertable, unobserved member has nothing left to refine
		// regardless of its score.
		positives := make(map[int32]bool)
		for s := 0; s < c.NumSuper() && s < len(probs); s++ {
			if probs[s] < fc.Threshold {
				continue
			}
			for _, v := range c.Members[s] {
				if insertable(n, v) && !observed[v] {
					positives[v] = true
				}
			}
		}
		total := len(positives)
		res.Iterations = iter + 1
		res.FinalPositives = total
		opiPositives.Observe(int64(total))
		if fc.Progress != nil {
			fc.Progress(iter, total, len(res.Targets))
		}
		if total == 0 {
			iterSpan.End()
			return res, nil
		}

		// Exact refinement inside the positive regions: same fan-in-cone
		// impact ranking as RunFlow, restricted to their member cells.
		rankSpan := iterSpan.Child("rank")
		selected := selectByImpact(n, positives, fc)
		rankSpan.End()
		if fc.MaxInsertions > 0 && len(res.Targets)+len(selected) > fc.MaxInsertions {
			selected = selected[:fc.MaxInsertions-len(res.Targets)]
		}
		if len(selected) == 0 {
			iterSpan.End()
			return res, nil
		}

		dirtySeen := make(map[int32]bool, len(dirty))
		for _, v := range selected {
			_, touched, err := InsertAndRefresh(n, meas, g, v, n.Levels())
			if err != nil {
				// selected only contains insertable cells, so this is a
				// programming error, not an input error.
				panic(err)
			}
			if _, err := c.AddObservationPoint(cg, v); err != nil {
				panic(err) // the fine insertion succeeded; the mirror must too
			}
			// Fine attribute refreshes shrink to the touched regions:
			// a region row changes only if some member's row changed the
			// region maximum.
			for _, u := range touched {
				s := c.Owner[u]
				if c.ReprojectRow(cg, g, s) && !dirtySeen[s] {
					dirtySeen[s] = true
					dirty = append(dirty, s)
				}
			}
			observed[v] = true
			res.Targets = append(res.Targets, v)
		}
		opiInsertions.Add(int64(len(selected)))
		iterSpan.End()
		if fc.MaxInsertions > 0 && len(res.Targets) >= fc.MaxInsertions {
			return res, nil
		}
	}
	return res, nil
}
