package opi

// Coarse-then-refine observation point insertion: the ROADMAP's
// pre-filter idea built on internal/coarsen. It is RunFlow scoring
// through a coarse predictor: the GCN never sees the fine graph — every
// prediction runs on the coarse supergraph (a fraction of the nodes, so
// both the one-time full inference and the per-round incremental updates
// shrink proportionally) and each region's score is lifted to its member
// cells. A region is then positive exactly when its cells are, so the
// exact machinery is spent only where the coarse model points: the
// refinable cells of positive regions are ranked by RunFlow's fan-in-cone
// impact, and every insertion updates the fine netlist, SCOAP measures
// and fine graph exactly (InsertAndRefresh). The coarsening is kept live
// across rounds — each new observation point becomes a singleton
// supernode and the touched regions' projected rows are recomputed — so
// the coarse graph stays exactly equal to the projection of the evolving
// fine graph.
//
// At ratio 1.0 the supergraph is the fine graph and the lift is the
// identity: the flow is then bit-identical to RunFlow on pred itself,
// the anchor the differential tests enforce.

import (
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// CoarseRefineConfig controls RunCoarseRefine.
type CoarseRefineConfig struct {
	// Ratio is the FFR coarsening ratio in (0, 1] (see coarsen.New).
	Ratio float64
	// Flow carries the shared insertion-flow knobs (threshold,
	// per-iteration cap, cone limit, iteration/insertion bounds,
	// progress hook). ExactImpact is ignored: it would score
	// hypothetical fine graphs the coarsening does not cover.
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
// RunFlow. pred is only ever invoked on the coarse graph. The error is
// non-nil only for an invalid coarsening ratio.
func RunCoarseRefine(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, pred core.IncrementalPredictor, cfg CoarseRefineConfig) (CoarseRefineResult, error) {
	c, err := coarsen.New(n, cfg.Ratio)
	if err != nil {
		return CoarseRefineResult{}, err
	}
	res := CoarseRefineResult{
		CoarseNodes:   c.NumSuper(),
		AchievedRatio: c.AchievedRatio(),
	}
	flow := cfg.Flow
	flow.ExactImpact = 0
	res.FlowResult = RunFlow(n, meas, g, coarsePredictor{c, pred}, flow)
	return res, nil
}

// coarsePredictor scores a fine graph through a coarsening of it: it
// projects the graph, scores the supergraph with pred and lifts each
// region's score to its member cells.
type coarsePredictor struct {
	c    *coarsen.Coarsening
	pred core.IncrementalPredictor
}

func (p coarsePredictor) PredictProbs(g *core.Graph) []float64 {
	return p.c.Lift(p.pred.PredictProbs(p.c.ProjectGraph(g)))
}

// NewIncremental opens a session that keeps the coarsening live: the
// session owns the coarse graph and mirrors every fine mutation into it.
func (p coarsePredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	cg := p.c.ProjectGraph(g)
	run := p.pred.NewIncremental(cg)
	return &coarseRun{c: p.c, cg: cg, run: run, probs: p.c.Lift(run.Probs())}
}

// coarseRun is a coarsePredictor session: a session of pred on the live
// coarse graph plus the lifted scores.
type coarseRun struct {
	c     *coarsen.Coarsening
	cg    *core.Graph
	run   core.IncrementalRun
	dirty []int32   // coarse rows whose projection changed, reused per update
	probs []float64 // run's scores lifted to the fine cells
}

func (r *coarseRun) Probs() []float64 { return r.probs }

// Update mirrors the fine mutations since the last update into the
// coarse graph and updates the coarse session. Every fine cell appended
// since then is an observation point whose only predecessor is its
// target, and becomes a singleton supernode. The regions of the dirty
// fine rows are then reprojected; every refresh is already applied, so a
// region reports a change at most once.
func (r *coarseRun) Update(g *core.Graph, dirty []int32) {
	for op := len(r.c.Owner); op < g.N; op++ {
		if _, err := r.c.AddObservationPoint(r.cg, g.PredList(int32(op))[0]); err != nil {
			panic(err) // the fine insertion succeeded; the mirror must too
		}
	}
	r.dirty = r.dirty[:0]
	for _, u := range dirty {
		if s := r.c.Owner[u]; r.c.ReprojectRow(r.cg, g, s) {
			r.dirty = append(r.dirty, s)
		}
	}
	r.run.Update(r.cg, r.dirty)
	if grow := g.N - len(r.probs); grow > 0 {
		r.probs = append(r.probs, make([]float64, grow)...)
	}
	r.c.LiftInto(r.probs, r.run.Probs())
}
