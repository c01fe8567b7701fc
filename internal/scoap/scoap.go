// Package scoap implements the Sandia Controllability/Observability
// Analysis Program (SCOAP) testability measures of Goldstein and Thigpen,
// the source of the C0, C1 and O components of the paper's node attribute
// vector [LL, C0, C1, O].
//
// Combinational controllability CC0/CC1 is the minimum "effort" (number of
// circuit lines that must be set) to drive a net to 0/1; observability CO
// is the effort to propagate a net's value to an observation sink (primary
// output, scan flip-flop data input, or inserted observation point).
// Values saturate at Unobservable rather than overflowing.
//
// Because the paper's iterative insertion flow repeatedly adds observation
// points, the package also provides an incremental update after a new
// observation point (Section 4 of the paper) that relaxes only the cells
// whose observability actually falls, a handful where the fan-in cone
// holds thousands.
package scoap

import (
	"math"
	"slices"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Analysis metrics (no-ops until obs.Enable; see docs/OBSERVABILITY.md).
var (
	scoapComputes    = obs.GetCounter("scoap.full_computes")
	scoapIncremental = obs.GetCounter("scoap.incremental_updates")
)

// Unobservable is the saturated measure value for nets with no path to an
// observation sink.
const Unobservable = int32(math.MaxInt32)

// Measures holds the SCOAP triple for every cell's output net, indexed by
// cell ID.
type Measures struct {
	CC0 []int32 // combinational 0-controllability
	CC1 []int32 // combinational 1-controllability
	CO  []int32 // combinational observability
}

// Compute performs a full SCOAP analysis: controllability forward in
// topological order, observability backward in reverse topological order.
// Full-scan discipline is assumed: flip-flop outputs are fully
// controllable and flip-flop data inputs are fully observable.
func Compute(n *netlist.Netlist) *Measures {
	span := obs.StartSpan("scoap")
	defer span.End()
	scoapComputes.Inc()
	m := &Measures{
		CC0: make([]int32, n.NumGates()),
		CC1: make([]int32, n.NumGates()),
		CO:  make([]int32, n.NumGates()),
	}
	order := n.TopoOrder()
	for _, id := range order {
		m.computeControllability(n, id)
	}
	for i := range m.CO {
		m.CO[i] = Unobservable
	}
	for i := len(order) - 1; i >= 0; i-- {
		m.updateObservability(n, order[i], nil)
	}
	return m
}

func (m *Measures) computeControllability(n *netlist.Netlist, id int32) {
	g := n.Gate(id)
	fi := g.Fanin
	switch g.Type {
	case netlist.Input, netlist.DFF:
		// Primary inputs and scan flip-flop outputs are directly settable.
		m.CC0[id], m.CC1[id] = 1, 1
	case netlist.Output:
		// A primary output sink mirrors the controllability of its net.
		m.CC0[id], m.CC1[id] = m.CC0[fi[0]], m.CC1[fi[0]]
	case netlist.Obs:
		// Inserted observation points carry the paper's fixed attribute
		// convention [0,1,1,0].
		m.CC0[id], m.CC1[id] = 1, 1
	case netlist.Buf:
		m.CC0[id] = satAdd(m.CC0[fi[0]], 1)
		m.CC1[id] = satAdd(m.CC1[fi[0]], 1)
	case netlist.Not:
		m.CC0[id] = satAdd(m.CC1[fi[0]], 1)
		m.CC1[id] = satAdd(m.CC0[fi[0]], 1)
	case netlist.And:
		m.CC1[id] = satAdd(sumCC(m.CC1, fi), 1)
		m.CC0[id] = satAdd(minCC(m.CC0, fi), 1)
	case netlist.Nand:
		m.CC0[id] = satAdd(sumCC(m.CC1, fi), 1)
		m.CC1[id] = satAdd(minCC(m.CC0, fi), 1)
	case netlist.Or:
		m.CC0[id] = satAdd(sumCC(m.CC0, fi), 1)
		m.CC1[id] = satAdd(minCC(m.CC1, fi), 1)
	case netlist.Nor:
		m.CC1[id] = satAdd(sumCC(m.CC0, fi), 1)
		m.CC0[id] = satAdd(minCC(m.CC1, fi), 1)
	case netlist.Xor, netlist.Xnor:
		c0, c1 := m.CC0[fi[0]], m.CC1[fi[0]]
		for _, f := range fi[1:] {
			a0, a1 := m.CC0[f], m.CC1[f]
			n0 := min32(satAdd(c0, a0), satAdd(c1, a1))
			n1 := min32(satAdd(c0, a1), satAdd(c1, a0))
			c0, c1 = n0, n1
		}
		if g.Type == netlist.Xnor {
			c0, c1 = c1, c0
		}
		m.CC0[id] = satAdd(c0, 1)
		m.CC1[id] = satAdd(c1, 1)
	}
}

// updateObservability sets CO of cell id's fanin nets from id's own CO
// (and sink status), taking the min with whatever other fanout branches
// already contributed. It must be invoked in reverse topological order
// with CO pre-initialized to Unobservable. Every fanin whose CO falls is
// added to fell when it is non-nil.
func (m *Measures) updateObservability(n *netlist.Netlist, id int32, fell *worklist) {
	g := n.Gate(id)
	switch g.Type {
	case netlist.Output, netlist.Obs:
		// The sink itself is the observation: its input net is observable
		// for free, and the sink's own CO is 0 by convention.
		m.CO[id] = 0
		m.lowerCO(g.Fanin[0], 0, fell)
		return
	case netlist.DFF:
		// Scan flip-flop: data input captured into the scan chain.
		m.lowerCO(g.Fanin[0], 0, fell)
		return
	case netlist.Input:
		return
	}
	co := m.CO[id]
	if co == Unobservable {
		return
	}
	fi := g.Fanin
	switch g.Type {
	case netlist.Buf, netlist.Not:
		m.lowerCO(fi[0], satAdd(co, 1), fell)
	case netlist.And, netlist.Nand:
		// Propagating input i requires every other input at 1.
		total := sumCC(m.CC1, fi)
		for _, f := range fi {
			others := satSub(total, m.CC1[f])
			m.lowerCO(f, satAdd(satAdd(co, others), 1), fell)
		}
	case netlist.Or, netlist.Nor:
		total := sumCC(m.CC0, fi)
		for _, f := range fi {
			others := satSub(total, m.CC0[f])
			m.lowerCO(f, satAdd(satAdd(co, others), 1), fell)
		}
	case netlist.Xor, netlist.Xnor:
		// Other inputs may hold either value, whichever is cheaper.
		var total int32
		for _, f := range fi {
			total = satAdd(total, min32(m.CC0[f], m.CC1[f]))
		}
		for _, f := range fi {
			others := satSub(total, min32(m.CC0[f], m.CC1[f]))
			m.lowerCO(f, satAdd(satAdd(co, others), 1), fell)
		}
	}
}

// lowerCO lowers CO[id] to v if v is smaller, adding id to fell (when
// non-nil) if it did.
func (m *Measures) lowerCO(id, v int32, fell *worklist) {
	if v < m.CO[id] {
		m.CO[id] = v
		if fell != nil {
			fell.add(id)
		}
	}
}

// UpdateAfterObservationPoint incrementally refreshes the measures after
// op (an Obs cell already inserted into n) was added. Controllability is
// unaffected by an observation point; observability can only decrease,
// and only for cells in the fan-in cone of the observed net.
//
// The measures are a fixpoint before the insertion, so a cell whose CO
// did not fall would hand its fanins the same bounds as before, none of
// them lower than what they already hold. The relaxation therefore
// starts from the observed net, calls updateObservability only on cells
// whose CO fell, and follows a fanin only when its CO falls in turn. It
// takes them in decreasing ID order, which is reverse topological order,
// so every cell is relaxed once, after all of its fanouts. The result
// equals relaxing the whole fan-in cone, at the cost of the cells that
// change (typically a handful, where the cone holds thousands).
//
// It returns the cells whose observability changed, in decreasing ID
// order, so callers propagating the update further (attribute rows,
// cached GCN embeddings) touch only those.
func (m *Measures) UpdateAfterObservationPoint(n *netlist.Netlist, op int32) []int32 {
	scoapIncremental.Inc()
	// Grow the measure slices to cover the new cell(s).
	for int32(len(m.CO)) < int32(n.NumGates()) {
		m.CC0 = append(m.CC0, 0)
		m.CC1 = append(m.CC1, 0)
		m.CO = append(m.CO, Unobservable)
	}
	m.computeControllability(n, op)
	m.CO[op] = 0

	var fell worklist
	m.lowerCO(n.Gate(op).Fanin[0], 0, &fell)
	var changed []int32
	for len(fell) > 0 {
		id := fell[len(fell)-1]
		fell = fell[:len(fell)-1]
		changed = append(changed, id)
		m.updateObservability(n, id, &fell)
	}
	return changed
}

// worklist holds the cells whose CO fell and that are not relaxed yet,
// in increasing ID order without duplicates, so the last one is the next
// to relax. A cell only ever adds its fanins, which have lower IDs, so
// every cell is relaxed after all of its fanouts.
type worklist []int32

func (w *worklist) add(id int32) {
	if i, found := slices.BinarySearch(*w, id); !found {
		*w = slices.Insert(*w, i, id)
	}
}

// Clone returns a deep copy of the measures.
func (m *Measures) Clone() *Measures {
	return &Measures{
		CC0: append([]int32(nil), m.CC0...),
		CC1: append([]int32(nil), m.CC1...),
		CO:  append([]int32(nil), m.CO...),
	}
}

// Levels convenience: assembles the paper's 4-dimensional attribute rows
// [LL, C0, C1, O] for every cell. Unobservable observability is clamped
// to clamp before being returned, keeping downstream feature scales sane.
func (m *Measures) Attributes(n *netlist.Netlist, clamp int32) [][4]float64 {
	lv := n.Levels()
	rows := make([][4]float64, n.NumGates())
	for id := range rows {
		co := m.CO[id]
		if co > clamp {
			co = clamp
		}
		cc0, cc1 := m.CC0[id], m.CC1[id]
		if cc0 > clamp {
			cc0 = clamp
		}
		if cc1 > clamp {
			cc1 = clamp
		}
		rows[id] = [4]float64{float64(lv[id]), float64(cc0), float64(cc1), float64(co)}
	}
	return rows
}

func sumCC(cc []int32, fi []int32) int32 {
	var s int32
	for _, f := range fi {
		s = satAdd(s, cc[f])
	}
	return s
}

func minCC(cc []int32, fi []int32) int32 {
	best := Unobservable
	for _, f := range fi {
		if cc[f] < best {
			best = cc[f]
		}
	}
	return best
}

func satAdd(a, b int32) int32 {
	s := int64(a) + int64(b)
	if s >= int64(Unobservable) {
		return Unobservable
	}
	return int32(s)
}

// satSub subtracts b from a saturated total; if the total saturated, the
// result stays saturated.
func satSub(a, b int32) int32 {
	if a == Unobservable {
		return Unobservable
	}
	return a - b
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
