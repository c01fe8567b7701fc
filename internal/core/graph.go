// Package core implements the paper's primary contribution: a
// high-performance graph convolutional network for netlist
// representation and testability classification.
//
// The package contains
//
//   - the GCN-ready graph representation (node attribute matrix plus the
//     predecessor/successor adjacency in CSR form, built from COO tuples
//     and updated in place by observation-point insertion),
//   - the GCN model itself: weighted-sum aggregators with learnable
//     predecessor/successor weights (Equation 1), encoder layers, and a
//     fully connected classifier head,
//   - matrix-formulated inference E_d = σ((A·E_{d-1})·W_d) over the sparse
//     adjacency (Equations 2–3), with full manual backpropagation for
//     end-to-end training,
//   - the naive per-node recursive inference of prior inductive GCNs
//     (Hamilton et al. [12]), reproduced as the Figure 10 baseline,
//   - the multi-stage cascade classifier for extreme class imbalance
//     (Section 3.3), and
//   - a data-parallel trainer that processes one graph per worker and
//     merges gradients, the CPU analogue of the paper's multi-GPU scheme
//     (Section 3.4.2).
package core

import (
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/scoap"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// InputDim is the node attribute dimensionality: [LL, C0, C1, O].
const InputDim = 4

// COClamp is the observability clamp applied before feature transform;
// unobservable nets saturate here rather than at MaxInt32.
const COClamp = 1 << 20

// Graph is a netlist prepared for GCN processing: a node attribute matrix
// X (N×4) and the directed adjacency split into a predecessor matrix P
// (P[v][u] = 1 iff edge u→v) and the successor matrix S = Pᵀ, both in
// CSR form and both built with the graph. AddObservationPoint updates
// them in place. Slices obtained from them (PredList, SuccList and the
// Entries forms) are valid only until the next mutation.
type Graph struct {
	N      int
	X      *tensor.Dense // N×InputDim transformed attributes
	Labels []int         // per node: 1 difficult-to-observe, 0 easy, -1 unknown

	pred *sparse.CSR // P
	succ *sparse.CSR // S = Pᵀ
}

// NewGraph builds a graph over the square predecessor tuples pred
// (row v, column u for each edge u→v; duplicates sum), with N =
// pred.NumRows and X and Labels zeroed. P is ToCSR of the tuples and S
// its Transpose, so each row keeps the order of its first tuples.
func NewGraph(pred *sparse.COO) *Graph {
	if pred.NumRows != pred.NumCols {
		panic(fmt.Sprintf("core: adjacency is %d×%d, not square", pred.NumRows, pred.NumCols))
	}
	p := pred.ToCSR()
	return &Graph{
		N:      pred.NumRows,
		X:      tensor.NewDense(pred.NumRows, InputDim),
		Labels: make([]int, pred.NumRows),
		pred:   p,
		succ:   p.Transpose(),
	}
}

// AttributeVector applies the feature transform used everywhere in this
// reproduction: log1p compression of the raw [LL, C0, C1, O] SCOAP
// attributes. The transform is fixed (no dataset statistics), preserving
// the model's inductive property across unseen designs.
func AttributeVector(ll, c0, c1, co float64) [4]float64 {
	return [4]float64{
		math.Log1p(ll),
		math.Log1p(c0),
		math.Log1p(c1),
		math.Log1p(co),
	}
}

// FromNetlist builds the GCN graph for a netlist with precomputed SCOAP
// measures. Labels are initialized to -1 (unknown).
func FromNetlist(n *netlist.Netlist, m *scoap.Measures) *Graph {
	pred := sparse.NewCOO(n.NumGates(), n.NumGates())
	for id := int32(0); id < int32(pred.NumRows); id++ {
		for _, f := range n.Fanin(id) {
			pred.Append(id, f, 1)
		}
	}
	g := NewGraph(pred)
	attrs := m.Attributes(n, COClamp)
	for id := 0; id < g.N; id++ {
		a := AttributeVector(attrs[id][0], attrs[id][1], attrs[id][2], attrs[id][3])
		copy(g.X.Row(id), a[:])
		g.Labels[id] = -1
	}
	return g
}

// Pred returns the predecessor adjacency P. Mutations update it in
// place.
func (g *Graph) Pred() *sparse.CSR { return g.pred }

// Succ returns the successor adjacency S = Pᵀ. Mutations update it in
// place.
func (g *Graph) Succ() *sparse.CSR { return g.succ }

// AddObservationPoint grows the graph by one node p attached to target
// (edge target→p), mirroring Section 4, and gives the new node the
// paper's fixed initial attribute [0,1,1,0] (before transform). It
// returns the new node index. Attribute refreshes for the fan-in cone
// are the caller's job (see SetAttributes), because they require SCOAP
// recomputation.
//
// The CSRs are updated in place to exactly what NewGraph would build
// from the graph's tuples with (p, target) appended: P gains the row
// [target] at its end, and S = Pᵀ gains the entry p at the end of row
// target (p exceeds every node already there, so the transpose's column
// order holds) plus an empty row p. The edit therefore costs one append
// to P and one tail shift in S, not two whole-graph conversions.
func (g *Graph) AddObservationPoint(target int32) int32 {
	if target < 0 || int(target) >= g.N {
		panic(fmt.Sprintf("core: observation target %d out of range", target))
	}
	p := int32(g.N)
	g.N++
	g.pred.Grow(g.N, g.N)
	g.pred.AppendToRow(p, target, 1)
	g.succ.Grow(g.N, g.N)
	g.succ.AppendToRow(target, p, 1)

	g.X = growRows(g.X, g.N)
	a := AttributeVector(0, 1, 1, 0)
	copy(g.X.Row(int(p)), a[:])

	g.Labels = append(g.Labels, 0) // an observed net is easy to observe
	return p
}

// SetAttributes overwrites node id's attribute row with the transformed
// [LL, C0, C1, O] vector; used to refresh fan-in cone attributes after an
// insertion.
func (g *Graph) SetAttributes(id int32, ll, c0, c1, co float64) {
	a := AttributeVector(ll, c0, c1, co)
	copy(g.X.Row(int(id)), a[:])
}

// PredList returns the predecessor node indices of v (CSR row of P).
func (g *Graph) PredList(v int32) []int32 {
	p := g.Pred()
	return p.ColIdx[p.RowPtr[v]:p.RowPtr[v+1]]
}

// SuccList returns the successor node indices of v (CSR row of S).
func (g *Graph) SuccList(v int32) []int32 {
	s := g.Succ()
	return s.ColIdx[s.RowPtr[v]:s.RowPtr[v+1]]
}

// PredEntries returns the predecessor indices of v together with their
// edge multiplicities (a gate that lists the same driver on two pins has
// a weight-2 entry after CSR duplicate merging).
func (g *Graph) PredEntries(v int32) ([]int32, []float64) {
	p := g.Pred()
	return p.ColIdx[p.RowPtr[v]:p.RowPtr[v+1]], p.Vals[p.RowPtr[v]:p.RowPtr[v+1]]
}

// SuccEntries returns the successor indices of v with multiplicities.
func (g *Graph) SuccEntries(v int32) ([]int32, []float64) {
	s := g.Succ()
	return s.ColIdx[s.RowPtr[v]:s.RowPtr[v+1]], s.Vals[s.RowPtr[v]:s.RowPtr[v+1]]
}

// Clone returns a deep copy of the graph (used by hypothetical-insertion
// impact evaluation and by /v1/opi's copy of a cached design).
func (g *Graph) Clone() *Graph {
	return &Graph{
		N:      g.N,
		X:      g.X.Clone(),
		Labels: append([]int(nil), g.Labels...),
		pred:   g.pred.Clone(),
		succ:   g.succ.Clone(),
	}
}

// CountLabels returns (#positive, #negative) over labeled nodes.
func (g *Graph) CountLabels() (pos, neg int) {
	for _, l := range g.Labels {
		switch l {
		case 1:
			pos++
		case 0:
			neg++
		}
	}
	return
}
