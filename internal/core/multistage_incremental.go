package core

// This file gives the multi-stage cascade (Section 3.3) the same
// incremental-inference capability as the single model: the iterative
// insertion flow mutates the graph only locally, every stage is an
// ordinary GCN whose output can change only within its D-hop
// neighborhood of the mutation, and the cascade's per-node verdict is a
// pure function of that node's per-stage probabilities. So a cascade
// session caches one IncrementalState per stage, propagates the dirty
// frontier through each of them, and refreshes the cascade decision
// (the activeList walk of PredictProbs) over exactly the stages'
// affected frontiers instead of all N nodes.

// MultiStageState caches one incremental-inference state per cascade
// stage plus the combined cascade output probabilities.
type MultiStageState struct {
	stages []*IncrementalState
	// Probs holds the cascade's current per-node positive probabilities
	// (identical to PredictProbs on the same graph).
	Probs []float64
}

// ForwardFull runs every stage's full inference pass and assembles the
// cascade output, capturing the per-stage states for incremental
// updates.
func (ms *MultiStage) ForwardFull(g *Graph) *MultiStageState {
	st := &MultiStageState{Probs: make([]float64, g.N)}
	for _, m := range ms.Stages {
		st.stages = append(st.stages, m.ForwardFull(g))
	}
	stageProbs := st.stageProbs()
	for v := range st.Probs {
		st.Probs[v] = ms.cascadeProb(stageProbs, v)
	}
	return st
}

// copy returns a copy of every stage's state and of the cascade
// probabilities, each with headroom for rows more rows.
func (st *MultiStageState) copy(rows int) *MultiStageState {
	c := &MultiStageState{Probs: copyRows(st.Probs, 1, rows)}
	for _, s := range st.stages {
		c.stages = append(c.stages, s.copy(rows))
	}
	return c
}

// stageProbs lists every stage's cached per-node probabilities.
func (st *MultiStageState) stageProbs() [][]float64 {
	out := make([][]float64, len(st.stages))
	for s, sst := range st.stages {
		out[s] = sst.Probs
	}
	return out
}

// cascadeProb evaluates the cascade decision for node v from the
// per-stage probabilities: the first non-final stage confident enough to
// filter the node assigns its (squashed) probability, and survivors get
// the final stage's probability. PredictProbs and the incremental
// session both decide through it.
func (ms *MultiStage) cascadeProb(stageProbs [][]float64, v int) float64 {
	last := len(ms.Stages) - 1
	for s := range ms.Stages {
		p := stageProbs[s][v]
		if s < last && p < ms.FilterBelow {
			return p * ms.FilterBelow // squash below any survivor
		}
		if s == last {
			return p
		}
	}
	return 0 // empty cascade
}

// UpdateIncremental refreshes the cascade state after graph mutations:
// the dirty set (plus appended nodes) is propagated through every
// stage's cached state, and then the cascade verdict is recomputed over
// each stage's affected frontier. cascadeProb is a pure function of the
// stages' probabilities, so a node in two frontiers gets the same bits
// twice.
func (ms *MultiStage) UpdateIncremental(st *MultiStageState, g *Graph, dirty []int32) {
	fronts := make([][]int32, len(ms.Stages))
	for i, m := range ms.Stages {
		fronts[i] = m.UpdateIncremental(st.stages[i], g, dirty)
	}
	if g.N > len(st.Probs) {
		st.Probs = append(st.Probs, make([]float64, g.N-len(st.Probs))...)
	}
	stageProbs := st.stageProbs()
	for _, front := range fronts {
		for _, v := range front {
			st.Probs[v] = ms.cascadeProb(stageProbs, int(v))
		}
	}
}

// multiStageRun adapts a (MultiStage, MultiStageState) pair to
// IncrementalRun.
type multiStageRun struct {
	ms *MultiStage
	st *MultiStageState
}

func (r *multiStageRun) Probs() []float64 { return r.st.Probs }

func (r *multiStageRun) Update(g *Graph, dirty []int32) { r.ms.UpdateIncremental(r.st, g, dirty) }

// NewIncremental runs one full cascade pass and returns the cached
// session for incremental updates.
func (ms *MultiStage) NewIncremental(g *Graph) IncrementalRun {
	return &multiStageRun{ms: ms, st: ms.ForwardFull(g)}
}
