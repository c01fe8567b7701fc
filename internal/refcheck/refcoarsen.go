package refcheck

import (
	"fmt"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// This file differentially verifies the graph-coarsening subsystem
// (internal/coarsen) against the fine-grained pipeline it compresses:
//
//   - coarsening is a deterministic function of (netlist, ratio);
//   - every coarsening satisfies its own structural invariants;
//   - at ratio 1.0 the projected supergraph IS the fine graph — same
//     attribute bits, labels, and normalized edges, in the same order;
//   - Lift is a pure broadcast: members of one supernode receive the
//     identical score, and the relative order of any two supernodes'
//     scores survives the lift unchanged on their members.

// CheckCoarsenDeterminism builds the same coarsening twice and returns
// an error on the first structural difference — owners or member lists.
func CheckCoarsenDeterminism(n *netlist.Netlist, ratio float64) error {
	a, err := coarsen.New(n, ratio)
	if err != nil {
		return err
	}
	b, err := coarsen.New(n, ratio)
	if err != nil {
		return fmt.Errorf("second build failed after first succeeded: %v", err)
	}
	if a.NumSuper() != b.NumSuper() {
		return fmt.Errorf("supernode counts differ across builds: %d vs %d", a.NumSuper(), b.NumSuper())
	}
	for v := range a.Owner {
		if a.Owner[v] != b.Owner[v] {
			return fmt.Errorf("cell %d owner differs across builds: %d vs %d", v, a.Owner[v], b.Owner[v])
		}
	}
	for s := range a.Members {
		if len(a.Members[s]) != len(b.Members[s]) {
			return fmt.Errorf("supernode %d member counts differ: %d vs %d", s, len(a.Members[s]), len(b.Members[s]))
		}
		for i := range a.Members[s] {
			if a.Members[s][i] != b.Members[s][i] {
				return fmt.Errorf("supernode %d member %d differs: %d vs %d", s, i, a.Members[s][i], b.Members[s][i])
			}
		}
	}
	return nil
}

// CheckCoarsenInvariants builds the coarsening and runs its Validate
// (partition shape, boundary singletons, monotone cross wires) and the
// achieved-ratio bounds.
func CheckCoarsenInvariants(n *netlist.Netlist, ratio float64) error {
	c, err := coarsen.New(n, ratio)
	if err != nil {
		return err
	}
	if err := c.Validate(n); err != nil {
		return fmt.Errorf("coarsening invariants: %v", err)
	}
	if r := c.AchievedRatio(); r < ratio-1e-9 || r > 1 {
		return fmt.Errorf("achieved ratio %v outside [%v, 1]", r, ratio)
	}
	return nil
}

// CheckIdentityProjection requires the ratio-1.0 supergraph to be the
// fine graph bit for bit: node count, attribute rows, labels, and the
// normalized predecessor lists must all be identical. This is the
// anchor that pins the projection math — max-aggregation over
// singleton groups must be exactly the identity, not merely close.
func CheckIdentityProjection(n *netlist.Netlist, g *core.Graph) error {
	c, err := coarsen.New(n, 1.0)
	if err != nil {
		return err
	}
	if c.NumSuper() != g.N {
		return fmt.Errorf("ratio 1.0: %d supernodes for %d cells", c.NumSuper(), g.N)
	}
	cg := c.ProjectGraph(g)
	for v := 0; v < g.N; v++ {
		s := int(c.Owner[v])
		fr, cr := g.X.Row(v), cg.X.Row(s)
		for k := range fr {
			if fr[k] != cr[k] {
				return fmt.Errorf("cell %d attr %d: fine %v, projected %v", v, k, fr[k], cr[k])
			}
		}
		if g.Labels[v] != cg.Labels[s] {
			return fmt.Errorf("cell %d label: fine %d, projected %d", v, g.Labels[v], cg.Labels[s])
		}
		fc, fv := g.PredEntries(int32(v))
		cc, cv := cg.PredEntries(int32(s))
		if len(fc) != len(cc) {
			return fmt.Errorf("cell %d pred count: fine %d, projected %d", v, len(fc), len(cc))
		}
		for i := range fc {
			if int32(c.Owner[fc[i]]) != cc[i] || fv[i] != cv[i] {
				return fmt.Errorf("cell %d pred %d: fine (%d,%v), projected (%d,%v)",
					v, i, fc[i], fv[i], cc[i], cv[i])
			}
		}
	}
	return nil
}

// CheckLiftOrder scores the supergraph with a random-initialized model
// and requires the lifted per-cell scores to (a) be identical inside
// each region and (b) preserve the relative order of every pair of
// region scores. Broadcast cannot invent or invert rankings — the
// coarse model's region ranking IS the fine ranking after lift.
func CheckLiftOrder(n *netlist.Netlist, g *core.Graph, ratio float64, seed int64) error {
	c, err := coarsen.New(n, ratio)
	if err != nil {
		return err
	}
	cg := c.ProjectGraph(g)
	m, err := core.NewModel(core.Config{Dims: []int{6, 8, 10}, FCDims: []int{8}, NumClasses: 2, Seed: seed})
	if err != nil {
		return err
	}
	probs := m.PredictProbs(cg)
	lifted := c.Lift(probs)
	if len(lifted) != g.N {
		return fmt.Errorf("lift returned %d scores for %d cells", len(lifted), g.N)
	}
	for v := 0; v < g.N; v++ {
		if lifted[v] != probs[c.Owner[v]] {
			return fmt.Errorf("cell %d: lifted %v, supernode %d scored %v",
				v, lifted[v], c.Owner[v], probs[c.Owner[v]])
		}
	}
	// Per-region constancy and cross-region order preservation follow
	// from the broadcast identity above, but check them directly so a
	// future non-broadcast Lift still has its contract pinned.
	for s, members := range c.Members {
		for _, v := range members {
			if lifted[v] != probs[s] {
				return fmt.Errorf("region %d not constant: cell %d has %v, region %v", s, v, lifted[v], probs[s])
			}
		}
	}
	for v := 1; v < g.N; v++ {
		u := v - 1
		su, sv := c.Owner[u], c.Owner[v]
		if su == sv {
			continue
		}
		if (probs[su] < probs[sv]) != (lifted[u] < lifted[v]) || (probs[su] > probs[sv]) != (lifted[u] > lifted[v]) {
			return fmt.Errorf("order inverted: regions %d,%d scored %v,%v but cells %d,%d lifted %v,%v",
				su, sv, probs[su], probs[sv], u, v, lifted[u], lifted[v])
		}
	}
	return nil
}

// CheckCoarsenNetlist sweeps every coarsening check over the reduced
// ratios plus the ratio-1.0 identity anchor.
func CheckCoarsenNetlist(n *netlist.Netlist, seed int64) error {
	g := core.FromNetlist(n, scoap.Compute(n))
	if err := CheckIdentityProjection(n, g); err != nil {
		return err
	}
	for _, ratio := range []float64{1.0, 0.5, 0.25} {
		if err := CheckCoarsenDeterminism(n, ratio); err != nil {
			return fmt.Errorf("ratio %v: %v", ratio, err)
		}
		if err := CheckCoarsenInvariants(n, ratio); err != nil {
			return fmt.Errorf("ratio %v: %v", ratio, err)
		}
		if err := CheckLiftOrder(n, g, ratio, seed); err != nil {
			return fmt.Errorf("ratio %v: %v", ratio, err)
		}
	}
	return nil
}
