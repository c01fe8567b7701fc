package core

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// This file implements incremental inference, the natural completion of
// the paper's Section 3.4/4 efficiency story: the iterative insertion
// flow changes the graph only locally (one appended node plus attribute
// refreshes inside a fan-in cone), and a depth-D GCN's output can change
// only within D hops of those modifications. Instead of re-running the
// full matrix inference after every insertion, IncrementalState caches
// the inputs of every layer and relaxes just the growing D-hop frontier.
//
// UpdateIncremental produces results bit-identical to a fresh Forward
// (pinned with == by the tests): each frontier row runs the same
// aggregate and encoder steps, and so the same SpMM row kernel and the
// same per-element expression, as the whole-graph pass. Its cost is
// proportional to the affected neighborhood instead of the whole graph.

// IncrementalRun is a cached-embedding inference session over one graph:
// Probs exposes the current per-node positive probabilities and Update
// refreshes them after local mutations (the attribute rows listed in
// dirty, plus any nodes appended since the previous update). The slice
// returned by Probs is owned by the session and is refreshed in place by
// Update; callers must treat it as read-only.
type IncrementalRun interface {
	Probs() []float64
	Update(g *Graph, dirty []int32)
}

// IncrementalPredictor is what the insertion flow (opi.RunFlow) scores
// through: a predictor that can pay full-graph inference once and then
// track local graph mutations at D-hop-bounded cost. *Model and
// *MultiStage both implement it.
type IncrementalPredictor interface {
	PredictProbs(g *Graph) []float64
	NewIncremental(g *Graph) IncrementalRun
}

// FullPass adapts a whole-graph scorer to IncrementalPredictor: its
// session scores the whole graph when it opens and again on every
// Update, whatever the dirty set. It is the insertion flow as the
// paper's Figure 7 states it (predict every node every round), and the
// reference the cached-embedding sessions are compared against: an
// update is == to a full pass.
func FullPass(score func(*Graph) []float64) IncrementalPredictor {
	return fullPass(score)
}

type fullPass func(*Graph) []float64

func (f fullPass) PredictProbs(g *Graph) []float64 { return f(g) }

func (f fullPass) NewIncremental(g *Graph) IncrementalRun {
	return &fullPassRun{score: f, probs: f(g)}
}

type fullPassRun struct {
	score fullPass
	probs []float64
}

func (r *fullPassRun) Probs() []float64 { return r.probs }

func (r *fullPassRun) Update(g *Graph, _ []int32) { r.probs = r.score(g) }

// IncrementalState caches exactly what its next update reads: E_0 …
// E_{D-1}, the inputs of the D encoder layers, and the probabilities it
// refreshes; E_D and the logits exist only in the tiles of a pass. It is
// tied to the (model, graph) pair that produced it. The frontier is
// tracked with an epoch-stamped mark array instead of per-update maps,
// so repeated updates stay allocation-light.
type IncrementalState struct {
	embeds []*tensor.Dense // E_0 … E_{D-1}; E_0 is a private copy of X, so only dirty rows reach it
	Probs  []float64

	mark          []int32 // mark[v] == epoch ⇔ v is in the current frontier
	epoch         int32
	front, front2 []int32 // frontier node lists (double-buffered)
}

// Embeddings returns the cached per-layer embeddings E_0 … E_{D-1}. They
// are owned by the state and refreshed in place by updates; treat them
// as read-only.
func (st *IncrementalState) Embeddings() []*tensor.Dense { return st.embeds }

// modelRun adapts a (Model, IncrementalState) pair to IncrementalRun.
type modelRun struct {
	m  *Model
	st *IncrementalState
}

func (r *modelRun) Probs() []float64 { return r.st.Probs }

func (r *modelRun) Update(g *Graph, dirty []int32) { r.m.UpdateIncremental(r.st, g, dirty) }

// NewIncremental runs one full inference pass and returns the cached
// session for incremental updates.
func (m *Model) NewIncremental(g *Graph) IncrementalRun {
	return &modelRun{m: m, st: m.ForwardFull(g)}
}

// CopyRun returns an independent copy of an open *Model or *MultiStage
// session: the live rows of E_0 … E_{D-1} and the probabilities, bit for
// bit, with fresh frontier marks. Since an update is == a full pass, the
// copy is == a session opened on a clone of the session's graph, and it
// costs a copy instead of a forward. Updating the copy leaves the
// source's bits unchanged, and the other way round.
// rows is how many rows the caller's updates will append at most (an
// insertion flow's observation-point budget): every copied matrix keeps
// exactly that much headroom, so those updates reslice it instead of
// reallocating and copying it in growRows. ok is false for any other
// session (core.FullPass, a caller's own IncrementalRun): it has no
// cached state to copy.
func CopyRun(run IncrementalRun, rows int) (copied IncrementalRun, ok bool) {
	switch r := run.(type) {
	case *modelRun:
		return &modelRun{m: r.m, st: r.st.copy(rows)}, true
	case *multiStageRun:
		return &multiStageRun{ms: r.ms, st: r.st.copy(rows)}, true
	}
	return nil, false
}

// copy returns the state's rows with headroom for rows more and fresh
// frontier marks.
func (st *IncrementalState) copy(rows int) *IncrementalState {
	c := &IncrementalState{Probs: copyRows(st.Probs, 1, rows)}
	for _, e := range st.embeds {
		c.embeds = append(c.embeds, copyDense(e, rows))
	}
	return c
}

func copyDense(d *tensor.Dense, rows int) *tensor.Dense {
	return &tensor.Dense{Rows: d.Rows, Cols: d.Cols, Data: copyRows(d.Data, d.Cols, rows)}
}

// copyRows copies s, a row-major matrix of cols columns, into a new slice
// with capacity for exactly rows more rows. The compiler turns a make
// followed by a copy from another slice into one allocation that zeroes
// only what the copy does not write, here the headroom.
func copyRows(s []float64, cols, rows int) []float64 {
	c := make([]float64, len(s)+rows*cols)
	copy(c, s)
	return c[:len(s)]
}

// ForwardFull runs a complete inference pass and captures the state
// needed for subsequent incremental updates.
func (m *Model) ForwardFull(g *Graph) *IncrementalState {
	span := obs.StartSpan("infer/full")
	defer span.End()
	st := &IncrementalState{Probs: make([]float64, g.N)}
	_, st.embeds = infer(newWeights[float64](m), g, st.Probs)
	return st
}

// UpdateIncremental refreshes the state after graph mutations. dirty
// lists every node whose attribute row changed; nodes appended since the
// last update (g.N larger than the cached state) are treated as dirty
// automatically. The update touches only the D-hop neighborhood of the
// dirty set, and returns the nodes whose output probabilities were
// recomputed (the final frontier) so that composite predictors — the
// MultiStage cascade — can refresh their own per-node state for exactly
// the affected region.
func (m *Model) UpdateIncremental(st *IncrementalState, g *Graph, dirty []int32) []int32 {
	span := obs.StartSpan("infer/incremental")
	defer span.End()
	oldN := st.embeds[0].Rows
	if g.N < oldN {
		panic("core: graph shrank; incremental state invalid")
	}
	// Grow cached matrices for appended nodes.
	if g.N > oldN {
		for d := range st.embeds {
			st.embeds[d] = growRows(st.embeds[d], g.N)
		}
		st.Probs = append(st.Probs, make([]float64, g.N-oldN)...)
		for v := oldN; v < g.N; v++ {
			dirty = append(dirty, int32(v))
		}
	}

	// Refresh E0 rows (attributes) for the dirty set. The epoch-stamped
	// mark array deduplicates without allocating a map per update.
	for len(st.mark) < g.N {
		st.mark = append(st.mark, 0)
	}
	st.epoch++
	nodes := st.front[:0]
	for _, v := range dirty {
		if st.mark[v] == st.epoch {
			continue
		}
		st.mark[v] = st.epoch
		nodes = append(nodes, v)
		copy(st.embeds[0].Row(int(v)), g.X.Row(int(v)))
	}
	next := st.front2[:0]
	defer func() { st.front, st.front2 = nodes, next }()
	if len(nodes) == 0 {
		return nil
	}

	// Each layer's frontier runs through the same tiled pass as a
	// whole-graph forward, over the frontier rows instead of all rows:
	// each tile gathers its aggregates, runs the encoder and scatters the
	// rows back into the cache, and the last layer's tiles run the FC head
	// on their E_D rows and refresh the probabilities. Per row the kernels
	// accumulate in the same order as the whole-graph pass, so the update
	// is bit-identical to it.
	p := newPass(newWeights[float64](m), g)
	defer p.release()
	p.probs = st.Probs
	for d := range m.Enc {
		// A node's E_{d+1} depends on its own and its neighbors' E_d, so
		// the affected set grows by one hop per layer.
		st.epoch++
		next = next[:0]
		for _, v := range nodes {
			// v may already be in next as a neighbor of an earlier node;
			// the mark check keeps the frontier duplicate-free, so no two
			// tiles write the same row.
			if st.mark[v] != st.epoch {
				st.mark[v] = st.epoch
				next = append(next, v)
			}
			for _, u := range g.SuccList(v) {
				if st.mark[u] != st.epoch {
					st.mark[u] = st.epoch
					next = append(next, u)
				}
			}
			for _, u := range g.PredList(v) {
				if st.mark[u] != st.epoch {
					st.mark[u] = st.epoch
					next = append(next, u)
				}
			}
		}
		nodes, next = next, nodes
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		p.rows, p.n = nodes, len(nodes)
		var out *tensor.Dense // E_{d+1}; nil for E_D, which only the head's tiles hold
		if d+1 < len(st.embeds) {
			out = st.embeds[d+1]
		}
		p.layer(d, st.embeds[d], out)
	}
	return nodes
}

// growRows extends a per-node matrix (a session's embeddings, a graph's
// X) to cover appended nodes. The flow appends a handful of rows per
// iteration, so reallocating (and copying) the whole matrix every time
// would turn it into a per-iteration O(N) cost and a GC storm; instead
// the first grow over-allocates 25% headroom and later grows reslice in
// place (the make-time zeroing covers the not-yet-used capacity).
func growRows(d *tensor.Dense, rows int) *tensor.Dense {
	if d.Rows >= rows {
		return d
	}
	need := rows * d.Cols
	if cap(d.Data) >= need {
		d.Data = d.Data[:need]
		d.Rows = rows
		return d
	}
	nd := &tensor.Dense{Rows: rows, Cols: d.Cols,
		Data: make([]float64, need, need+need/4)}
	copy(nd.Data, d.Data)
	return nd
}
