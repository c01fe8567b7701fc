// Package coarsen reduces a netlist to a smaller supergraph for faster
// GCN inference, trading accuracy for speed along a measured curve
// (the CTS-Bench question applied to this reproduction: how much F1 and
// fault coverage does each unit of node reduction cost?).
//
// New clusters each fanout-free region (FFR) — a maximal tree of cells
// whose outputs feed exactly one load — into one supernode: inside an
// FFR every cell's value propagates through the same single path to the
// region head, so the cells share observability structure and collapse
// with little information loss.
//
// The result is a deterministic, invertible cell→supernode mapping whose
// supernode numbering is topological (every cross-region wire points
// from a lower to a higher supernode id), feature projection onto
// supernodes (ProjectGraph) and score lifting back to member cells
// (Lift). At ratio 1.0 the mapping is the identity and the projected
// graph is bit-identical to the fine graph — the anchor invariant the
// refcheck differential suite enforces.
package coarsen

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Coarsening metrics (no-ops until obs.Enable; see
// docs/OBSERVABILITY.md).
var (
	coarsenBuilds     = obs.GetCounter("coarsen.builds")
	coarsenSupernodes = obs.GetCounter("coarsen.supernodes")
	coarsenLifts      = obs.GetCounter("coarsen.lifts")
)

// Coarsening is the result of clustering a netlist: the invertible
// cell→supernode mapping.
type Coarsening struct {
	// Owner maps each fine cell id to its supernode id. Supernode ids
	// are topological: every fine wire u→v has Owner[u] <= Owner[v],
	// with equality exactly for region-internal wires.
	Owner []int32
	// Members inverts Owner: Members[s] lists the fine cells of
	// supernode s in ascending id order.
	Members [][]int32
}

// NumFine returns the fine cell count.
func (c *Coarsening) NumFine() int { return len(c.Owner) }

// NumSuper returns the supernode count.
func (c *Coarsening) NumSuper() int { return len(c.Members) }

// AchievedRatio returns supernodes/cells, the reduction actually
// realized (>= the requested ratio).
func (c *Coarsening) AchievedRatio() float64 {
	if len(c.Owner) == 0 {
		return 1
	}
	return float64(len(c.Members)) / float64(len(c.Owner))
}

// boundary reports whether a cell type must stay a singleton
// supernode: merging PIs, POs, scan cells or observation points would
// change the design's testability interface, not just its resolution.
func boundary(t netlist.GateType) bool {
	switch t {
	case netlist.Input, netlist.Output, netlist.DFF, netlist.Obs:
		return true
	}
	return false
}

// New clusters n into fanout-free regions of at most ⌈1/ratio⌉ cells.
// ratio is the target supernode/cell ratio in (0, 1]: 1.0 keeps every
// cell (identity), 0.25 aims at a 4× reduction. The achieved ratio may
// be higher — regions cannot merge past fanout boundaries and boundary
// cells (Input, Output, DFF, Obs) always stay singletons — and is
// reported by Coarsening.AchievedRatio. The result is deterministic: the
// same netlist and ratio always produce the same Coarsening.
func New(n *netlist.Netlist, ratio float64) (*Coarsening, error) {
	if n == nil {
		return nil, fmt.Errorf("coarsen: nil netlist")
	}
	if !(ratio > 0 && ratio <= 1) {
		return nil, fmt.Errorf("coarsen: ratio %v outside (0, 1]", ratio)
	}
	var owner []int32
	if cap := int(math.Ceil(1/ratio - 1e-9)); cap <= 1 {
		// Ratio 1.0 degenerates to the identity mapping, which keeps the
		// projected graph (and everything derived from it) bit-identical
		// to the fine pipeline.
		owner = identityOwners(n)
	} else {
		owner = ffrOwners(n, cap)
	}
	c := &Coarsening{Owner: owner, Members: members(owner)}
	coarsenBuilds.Inc()
	coarsenSupernodes.Add(int64(c.NumSuper()))
	return c, nil
}

func identityOwners(n *netlist.Netlist) []int32 {
	owner := make([]int32, n.NumGates())
	for v := range owner {
		owner[v] = int32(v)
	}
	return owner
}

// ffrOwners assigns each cell to the head of its fanout-free region.
// A cell joins its unique load's region when it has exactly one load,
// neither side is a boundary cell, and the region is under the size
// cap. Scanning in decreasing id order means every load's head is
// final before its drivers are considered, so the pass is a single
// sweep. Heads are exactly the cells with outgoing cross-region wires:
// a merged cell's only wire goes to its own region, so every cross
// wire originates at a head h and ends at a cell v > h of a region
// whose head is >= v — head ids are topologically ordered, and
// numbering supernodes by head rank keeps cross wires monotone.
func ffrOwners(n *netlist.Netlist, cap int) []int32 {
	num := n.NumGates()
	head := make([]int32, num)
	size := make([]int32, num)
	for v := int32(num) - 1; v >= 0; v-- {
		head[v] = v
		size[v]++ // v itself joins whichever region head[v] ends up naming
		if boundary(n.Type(v)) {
			continue
		}
		fo := n.Fanout(v)
		if len(fo) != 1 {
			continue
		}
		load := fo[0]
		if boundary(n.Type(load)) {
			continue
		}
		h := head[load]
		if int(size[h])+int(size[v]) > cap {
			continue
		}
		size[h] += size[v]
		size[v] = 0
		head[v] = h
	}
	// Rank the heads: supernode id = position of the head among all
	// heads in ascending id order.
	rank := make([]int32, num)
	next := int32(0)
	for v := 0; v < num; v++ {
		if head[v] == int32(v) {
			rank[v] = next
			next++
		}
	}
	owner := make([]int32, num)
	for v := range owner {
		owner[v] = rank[head[v]]
	}
	return owner
}

// members inverts owner: supernode s lists its cells in ascending id
// order. Owner ids are contiguous from 0, so no supernode is empty.
func members(owner []int32) [][]int32 {
	m := 0
	for _, s := range owner {
		if int(s) >= m {
			m = int(s) + 1
		}
	}
	out := make([][]int32, m)
	for v, s := range owner {
		out[s] = append(out[s], int32(v))
	}
	return out
}

// Validate checks the coarsening invariants against the netlist it
// was built from: Owner a total map onto contiguous supernode ids,
// Members the exact sorted inverse, cross wires monotone in supernode
// id, and boundary cells singletons. Intended for tests and fuzzing.
func (c *Coarsening) Validate(n *netlist.Netlist) error {
	if len(c.Owner) != n.NumGates() {
		return fmt.Errorf("coarsen: Owner covers %d of %d cells", len(c.Owner), n.NumGates())
	}
	seen := make([]bool, n.NumGates())
	for s, members := range c.Members {
		if len(members) == 0 {
			return fmt.Errorf("coarsen: supernode %d empty", s)
		}
		for i, v := range members {
			if v < 0 || int(v) >= n.NumGates() {
				return fmt.Errorf("coarsen: supernode %d member %d out of range", s, v)
			}
			if i > 0 && members[i-1] >= v {
				return fmt.Errorf("coarsen: supernode %d members not sorted at %d", s, v)
			}
			if seen[v] {
				return fmt.Errorf("coarsen: cell %d in two supernodes", v)
			}
			seen[v] = true
			if c.Owner[v] != int32(s) {
				return fmt.Errorf("coarsen: cell %d in supernode %d but Owner says %d", v, s, c.Owner[v])
			}
		}
		if len(members) > 1 {
			for _, v := range members {
				if boundary(n.Type(v)) {
					return fmt.Errorf("coarsen: boundary cell %d (%s) merged into supernode %d",
						v, n.Type(v), s)
				}
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("coarsen: cell %d not covered", v)
		}
	}
	for v := int32(0); v < int32(n.NumGates()); v++ {
		for _, f := range n.Fanin(v) {
			if c.Owner[f] > c.Owner[v] {
				return fmt.Errorf("coarsen: wire %d→%d maps to backward super wire %d→%d",
					f, v, c.Owner[f], c.Owner[v])
			}
		}
	}
	return nil
}

// ProjectGraph aggregates the fine GCN graph onto the supernodes:
// attributes by per-column max over members (max commutes with the
// monotone log1p transform, so the supernode keeps the worst
// level/controllability/observability of its region — the signal the
// difficult-to-observe classifier keys on), labels by any-positive
// (else any-negative, else unknown), and adjacency from cross-region
// wires with multiplicity. At ratio 1.0 the result is bit-identical
// to the fine graph.
func (c *Coarsening) ProjectGraph(g *core.Graph) *core.Graph {
	if g.N != len(c.Owner) {
		panic(fmt.Sprintf("coarsen: graph has %d nodes, coarsening covers %d", g.N, len(c.Owner)))
	}
	m := len(c.Members)
	coo := sparse.NewCOO(m, m)
	for v := int32(0); v < int32(g.N); v++ {
		s := c.Owner[v]
		cols, vals := g.PredEntries(v)
		for i, f := range cols {
			if fs := c.Owner[f]; fs != s {
				coo.Append(s, fs, vals[i])
			}
		}
	}
	cg := core.NewGraph(coo)
	for s := 0; s < m; s++ {
		row := cg.X.Row(s)
		label := -1
		for i, v := range c.Members[s] {
			fine := g.X.Row(int(v))
			if i == 0 {
				copy(row, fine)
			} else {
				for k := range row {
					if fine[k] > row[k] {
						row[k] = fine[k]
					}
				}
			}
			switch g.Labels[v] {
			case 1:
				label = 1
			case 0:
				if label != 1 {
					label = 0
				}
			}
		}
		cg.Labels[s] = label
	}
	return cg
}

// AddObservationPoint mirrors a fine observation-point insertion on the
// coarse side so a live coarsening can track the OPI flow without being
// rebuilt. It must be called after the fine netlist inserted its Obs
// cell on target: the new fine cell (id len(Owner) at call time) becomes
// a fresh singleton supernode, and cg — the projected graph — receives
// the matching node and edge. An Obs cell is a boundary singleton with
// the paper's fixed initial attributes, so the mirrored insertion keeps
// cg exactly equal to ProjectGraph of the updated fine graph (attribute
// refreshes inside the fan-in cone are the caller's job; see
// ReprojectRow). Returns the new supernode id.
func (c *Coarsening) AddObservationPoint(cg *core.Graph, target int32) (int32, error) {
	if target < 0 || int(target) >= len(c.Owner) {
		return -1, fmt.Errorf("coarsen: observation target %d outside fine range %d", target, len(c.Owner))
	}
	opSuper := int32(len(c.Members))
	cg.AddObservationPoint(c.Owner[target])
	c.Owner = append(c.Owner, opSuper)
	c.Members = append(c.Members, []int32{int32(len(c.Owner) - 1)})
	return opSuper, nil
}

// ReprojectRow recomputes supernode s's projected attribute row from the
// fine graph (per-column max over members) and reports whether any entry
// changed — the coarse dirty-row test after fine attribute refreshes.
func (c *Coarsening) ReprojectRow(cg, g *core.Graph, s int32) bool {
	row := cg.X.Row(int(s))
	members := c.Members[s]
	changed := false
	for k := 0; k < core.InputDim; k++ {
		best := g.X.At(int(members[0]), k)
		for _, v := range members[1:] {
			if x := g.X.At(int(v), k); x > best {
				best = x
			}
		}
		if best != row[k] {
			row[k] = best
			changed = true
		}
	}
	return changed
}

// Lift projects per-supernode scores back to the fine cells:
// lifted[v] = coarse[Owner[v]]. Every member of a region receives its
// region's score, so region-level ranking order is preserved exactly.
func (c *Coarsening) Lift(coarse []float64) []float64 {
	out := make([]float64, len(c.Owner))
	c.LiftInto(out, coarse)
	return out
}

// LiftInto is Lift into a caller-provided slice (len == NumFine()).
func (c *Coarsening) LiftInto(dst, coarse []float64) {
	if len(dst) != len(c.Owner) {
		panic(fmt.Sprintf("coarsen: lift dst has %d entries, want %d", len(dst), len(c.Owner)))
	}
	if len(coarse) != len(c.Members) {
		panic(fmt.Sprintf("coarsen: lift src has %d entries, want %d", len(coarse), len(c.Members)))
	}
	for v, s := range c.Owner {
		dst[v] = coarse[s]
	}
	coarsenLifts.Inc()
}
