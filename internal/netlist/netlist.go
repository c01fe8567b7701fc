// Package netlist provides a compact, index-based representation of
// gate-level logic netlists, the fundamental substrate of this
// reproduction. A netlist is a directed graph in which every node is a
// cell (gate, primary input, primary output, flip-flop, or inserted
// observation point) and every edge is a wire, exactly as in Section 3.1
// of the paper.
//
// The representation is designed to scale to millions of cells: gates are
// stored in a flat slice addressed by dense int32 IDs, and fanin/fanout
// lists are int32 slices. All structural queries (topological order, logic
// levels, fan-in/fan-out cones) are provided here so that higher layers
// (SCOAP, fault simulation, the GCN graph construction) never need their
// own traversal code.
package netlist

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/par"
)

// GateType enumerates the cell types supported by the netlist substrate.
type GateType uint8

// Supported cell types. Input denotes a primary input, Output a primary
// output sink, DFF a scan flip-flop (treated as a pseudo PI/PO boundary by
// the testability layers), and Obs an inserted observation point (a pseudo
// primary output, i.e. a scan cell attached to an internal net).
const (
	Input GateType = iota
	Output
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
	Obs
	numGateTypes
)

var gateTypeNames = [...]string{
	Input:  "INPUT",
	Output: "OUTPUT",
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	DFF:    "DFF",
	Obs:    "OBS",
}

// String returns the canonical upper-case mnemonic of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType converts a mnemonic such as "NAND" to its GateType.
func ParseGateType(s string) (GateType, error) {
	for t, name := range gateTypeNames {
		if name == s {
			return GateType(t), nil
		}
	}
	return 0, fmt.Errorf("netlist: unknown gate type %s", quote(s))
}

// maxQuoted is the most bytes of a line, net name or gate type that an
// error quotes. A text may hold one of any length, and %q spells a
// control byte in four, so quoting it whole could make an error several
// times the size of the text.
const maxQuoted = 256

// quote is s as %q prints it, cut after maxQuoted bytes and marked with
// "..." if it is longer.
func quote(s string) string {
	if len(s) > maxQuoted {
		return strconv.Quote(s[:maxQuoted]) + "..."
	}
	return strconv.Quote(s)
}

// MinFanin returns the minimum number of fanin nets a cell of this type
// must have; MaxFanin returns the maximum (or -1 for unbounded).
func (t GateType) MinFanin() int {
	switch t {
	case Input:
		return 0
	case Output, Buf, Not, DFF, Obs:
		return 1
	default:
		return 2
	}
}

// MaxFanin reports the maximum legal fanin count for the type, with -1
// meaning unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input:
		return 0
	case Output, Buf, Not, DFF, Obs:
		return 1
	default:
		return -1
	}
}

// IsObservationSink reports whether the cell type makes its (single) fanin
// net directly observable: primary outputs, scan flip-flop data inputs and
// inserted observation points.
func (t GateType) IsObservationSink() bool {
	return t == Output || t == DFF || t == Obs
}

// IsControllableSource reports whether the cell drives a fully
// controllable net: primary inputs and scan flip-flop outputs.
func (t GateType) IsControllableSource() bool {
	return t == Input || t == DFF
}

// Gate is a single cell. Fanin holds the IDs of driver cells in pin
// order. Name is optional and used only by the text formats.
type Gate struct {
	Type  GateType
	Name  string
	Fanin []int32
}

// Netlist is a mutable gate-level netlist. The zero value is an empty
// netlist ready for use. Gates are identified by dense int32 IDs in
// insertion order. Derived structure (fanout lists, levels, topological
// order, the name index) is computed lazily on first use, and AddGate
// extends whatever is already built.
type Netlist struct {
	Name  string
	gates []Gate

	// Lazily computed caches; nil until first use, then kept current by
	// AddGate.
	fanout  [][]int32
	topo    []int32
	levels  []int32
	nameIdx map[string]int32
}

// New returns an empty netlist with the given design name.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// NumGates returns the number of cells in the netlist.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumEdges returns the total number of wires (sum of fanin counts).
func (n *Netlist) NumEdges() int {
	total := 0
	for i := range n.gates {
		total += len(n.gates[i].Fanin)
	}
	return total
}

// Gate returns the cell with the given ID. The returned pointer is valid
// until the next mutation; callers must not modify Fanin through it.
func (n *Netlist) Gate(id int32) *Gate { return &n.gates[id] }

// Type returns the cell type of id.
func (n *Netlist) Type(id int32) GateType { return n.gates[id].Type }

// Fanin returns the fanin (driver) IDs of id. The slice is owned by the
// netlist and must not be modified.
func (n *Netlist) Fanin(id int32) []int32 { return n.gates[id].Fanin }

// AddGate appends a cell and returns its ID. Fanin IDs must refer to
// already-added cells, which guarantees the gates slice is already in a
// valid topological order for acyclic designs built front to back.
func (n *Netlist) AddGate(t GateType, name string, fanin ...int32) (int32, error) {
	return n.addGate(t, name, append([]int32(nil), fanin...))
}

// addGate is AddGate keeping fanin itself rather than a copy; Read
// carves every cell's fanin from one arena.
func (n *Netlist) addGate(t GateType, name string, fanin []int32) (int32, error) {
	if min := t.MinFanin(); len(fanin) < min {
		return 0, fmt.Errorf("netlist: %s gate %s needs at least %d fanin, got %d", t, quote(name), min, len(fanin))
	}
	if max := t.MaxFanin(); max >= 0 && len(fanin) > max {
		return 0, fmt.Errorf("netlist: %s gate %s allows at most %d fanin, got %d", t, quote(name), max, len(fanin))
	}
	id := int32(len(n.gates))
	for _, f := range fanin {
		if f < 0 || f >= id {
			return 0, fmt.Errorf("netlist: gate %s fanin %d out of range [0,%d)", quote(name), f, id)
		}
		if ft := n.gates[f].Type; ft == Output || ft == Obs {
			return 0, fmt.Errorf("netlist: gate %s reads %s cell %d, and sink cells drive nothing", quote(name), ft, f)
		}
	}
	n.gates = append(n.gates, Gate{Type: t, Name: name, Fanin: fanin})
	n.extendCaches(id)
	return id, nil
}

// MustAddGate is AddGate that panics on error; intended for generators and
// tests where the construction is known valid.
func (n *Netlist) MustAddGate(t GateType, name string, fanin ...int32) int32 {
	id, err := n.AddGate(t, name, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// InsertObservationPoint attaches an observation point (pseudo primary
// output scan cell) to the output net of target and returns the new
// cell's ID. This is the netlist-level half of the paper's OP insertion:
// a new node p is added together with the edge target→p.
func (n *Netlist) InsertObservationPoint(target int32) (int32, error) {
	if target < 0 || int(target) >= len(n.gates) {
		return 0, fmt.Errorf("netlist: observation point target %d out of range", target)
	}
	t := n.gates[target].Type
	if t == Output || t == Obs {
		return 0, fmt.Errorf("netlist: cannot observe %s cell %d", t, target)
	}
	return n.AddGate(Obs, fmt.Sprintf("op_%d", target), target)
}

// IDByName returns the ID of the cell with the given name.
func (n *Netlist) IDByName(name string) (int32, bool) {
	if n.nameIdx == nil {
		n.nameIdx = make(map[string]int32, len(n.gates))
		for i := range n.gates {
			if n.gates[i].Name != "" {
				n.nameIdx[n.gates[i].Name] = int32(i)
			}
		}
	}
	id, ok := n.nameIdx[name]
	return id, ok
}

// PrimaryInputs returns the IDs of all Input cells in ID order.
func (n *Netlist) PrimaryInputs() []int32 { return n.idsOfType(Input) }

// PrimaryOutputs returns the IDs of all Output cells in ID order.
func (n *Netlist) PrimaryOutputs() []int32 { return n.idsOfType(Output) }

// ObservationPoints returns the IDs of all inserted Obs cells in ID order.
func (n *Netlist) ObservationPoints() []int32 { return n.idsOfType(Obs) }

// FlipFlops returns the IDs of all DFF cells in ID order.
func (n *Netlist) FlipFlops() []int32 { return n.idsOfType(DFF) }

func (n *Netlist) idsOfType(t GateType) []int32 {
	var ids []int32
	for i := range n.gates {
		if n.gates[i].Type == t {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// CountType returns the number of cells of the given type.
func (n *Netlist) CountType(t GateType) int {
	c := 0
	for i := range n.gates {
		if n.gates[i].Type == t {
			c++
		}
	}
	return c
}

// Fanout returns the fanout (load) IDs of id. The slice is owned by the
// netlist and must not be modified.
func (n *Netlist) Fanout(id int32) []int32 {
	if n.fanout == nil {
		n.buildFanout()
	}
	return n.fanout[id]
}

func (n *Netlist) buildFanout() {
	counts := make([]int32, len(n.gates))
	for i := range n.gates {
		for _, f := range n.gates[i].Fanin {
			counts[f]++
		}
	}
	n.fanout = make([][]int32, len(n.gates))
	backing := make([]int32, 0, n.NumEdges())
	for i := range n.gates {
		c := counts[i]
		n.fanout[i] = backing[len(backing) : len(backing) : len(backing)+int(c)]
		backing = backing[:len(backing)+int(c)]
	}
	for i := range n.gates {
		for _, f := range n.gates[i].Fanin {
			n.fanout[f] = append(n.fanout[f], int32(i))
		}
	}
}

// extendCaches brings every built cache up to date with the cell id
// just appended, so an edit such as an observation-point insertion costs
// O(fanin) instead of a rebuild on the next query. A new cell changes no
// existing cell's level or topological position: it reads only cells
// already present and nothing reads it yet. Caches not yet built stay
// lazy, so parsing pays nothing here.
func (n *Netlist) extendCaches(id int32) {
	g := &n.gates[id]
	if n.fanout != nil {
		for _, f := range g.Fanin {
			n.fanout[f] = append(n.fanout[f], id)
		}
		n.fanout = append(n.fanout, nil)
	}
	if n.topo != nil {
		n.topo = append(n.topo, id)
	}
	if n.levels != nil {
		n.levels = append(n.levels, n.levelOf(g))
	}
	if n.nameIdx != nil && g.Name != "" {
		n.nameIdx[g.Name] = id
	}
}

// TopoOrder returns the cell IDs in a topological order (drivers before
// loads). Because AddGate only accepts already-present fanin, insertion
// order is always topological; the method exists so that callers do not
// depend on that invariant and to support future formats that relax it.
func (n *Netlist) TopoOrder() []int32 {
	if n.topo != nil {
		return n.topo
	}
	order := make([]int32, len(n.gates))
	for i := range order {
		order[i] = int32(i)
	}
	n.topo = order
	return order
}

// Levels returns the logic level LL of every cell: primary inputs and
// flip-flop outputs are level 0, and every other cell is one more than
// the maximum level of its fanin. This is the LL component of the node
// attribute vector [LL, C0, C1, O].
func (n *Netlist) Levels() []int32 {
	if n.levels != nil {
		return n.levels
	}
	n.levels = make([]int32, len(n.gates))
	for _, id := range n.TopoOrder() {
		n.levels[id] = n.levelOf(&n.gates[id])
	}
	return n.levels
}

// levelOf computes g's level from the levels of its fanin, which must
// already be in n.levels.
func (n *Netlist) levelOf(g *Gate) int32 {
	if g.Type.IsControllableSource() {
		return 0
	}
	best := int32(-1)
	for _, f := range g.Fanin {
		if n.levels[f] > best {
			best = n.levels[f]
		}
	}
	return best + 1
}

// MaxLevel returns the maximum logic level in the design (the depth).
func (n *Netlist) MaxLevel() int32 {
	var max int32
	for _, l := range n.Levels() {
		if l > max {
			max = l
		}
	}
	return max
}

// FaninCone returns up to limit cell IDs reachable backwards from id
// (excluding id itself), discovered in breadth-first order — the
// traversal order the paper prescribes for handcrafted cone features. A
// limit of 0 means unbounded.
func (n *Netlist) FaninCone(id int32, limit int) []int32 {
	return n.cone(id, limit, func(v int32) []int32 { return n.gates[v].Fanin })
}

// FanoutCone returns up to limit cell IDs reachable forwards from id
// (excluding id itself) in breadth-first order. A limit of 0 means
// unbounded.
func (n *Netlist) FanoutCone(id int32, limit int) []int32 {
	if n.fanout == nil {
		n.buildFanout()
	}
	return n.cone(id, limit, func(v int32) []int32 { return n.fanout[v] })
}

// cone is the breadth-first traversal behind FaninCone and FanoutCone.
// The cells discovered so far are also its queue, and the visited set is
// a mark array from a free list, cleared over the cells the traversal
// marked before it goes back, so a cone allocates only its result, costs
// only its own cells, and concurrent traversals never share a mark array.
func (n *Netlist) cone(id int32, limit int, next func(int32) []int32) (out []int32) {
	marks := coneMarks.Get()
	if len(*marks) < len(n.gates) {
		// The flow grows its netlist by a few cells per round, so the
		// array grows by append's margin rather than to the exact size.
		*marks = append(*marks, make([]bool, len(n.gates)-len(*marks))...)
	}
	mark := *marks
	defer func() {
		mark[id] = false
		for _, u := range out {
			mark[u] = false
		}
		coneMarks.Put(marks)
	}()
	mark[id] = true
	for head, v := 0, id; ; head++ {
		for _, u := range next(v) {
			if mark[u] {
				continue
			}
			mark[u] = true
			out = append(out, u)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
		if head == len(out) {
			return out
		}
		v = out[head]
	}
}

// coneMarks keeps the cones' mark arrays, all false between traversals;
// the flow's cone ranking extracts hundreds of cones per round on the
// par helpers.
var coneMarks = par.NewFree[[]bool]()

// Validate checks structural invariants: fanin IDs in range and strictly
// smaller than the gate ID (acyclicity by construction), fanin arity
// legal for the type, Input cells have no fanin, and Output/Obs cells
// drive nothing.
func (n *Netlist) Validate() error {
	if n.fanout == nil {
		n.buildFanout()
	}
	for i := range n.gates {
		g := &n.gates[i]
		if min := g.Type.MinFanin(); len(g.Fanin) < min {
			return fmt.Errorf("netlist: cell %d (%s) has %d fanin, needs >= %d", i, g.Type, len(g.Fanin), min)
		}
		if max := g.Type.MaxFanin(); max >= 0 && len(g.Fanin) > max {
			return fmt.Errorf("netlist: cell %d (%s) has %d fanin, allows <= %d", i, g.Type, len(g.Fanin), max)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= int32(i) {
				return fmt.Errorf("netlist: cell %d fanin %d violates topological IDs", i, f)
			}
		}
		if (g.Type == Output || g.Type == Obs) && len(n.fanout[i]) != 0 {
			return fmt.Errorf("netlist: sink cell %d (%s) has fanout", i, g.Type)
		}
	}
	return nil
}

// Clone returns a deep copy of the netlist (caches are not copied). The
// copy's fanin lists share one arena, as Read's do.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{Name: n.Name, gates: make([]Gate, len(n.gates))}
	arena := make([]int32, 0, n.NumEdges())
	for i := range n.gates {
		g := n.gates[i]
		if len(g.Fanin) > 0 {
			start := len(arena)
			arena = append(arena, g.Fanin...)
			g.Fanin = arena[start:len(arena):len(arena)]
		}
		c.gates[i] = g
	}
	return c
}

// Stats summarizes a netlist for reporting.
type Stats struct {
	Gates    int
	Edges    int
	PIs      int
	POs      int
	DFFs     int
	Obs      int
	Depth    int32
	ByType   map[GateType]int
	AvgFan   float64
	MaxFan   int
	Sparsity float64 // fraction of zero entries in the N×N adjacency
}

// ComputeStats gathers summary statistics (Table 1 style) for the design.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{ByType: make(map[GateType]int)}
	s.Gates = n.NumGates()
	s.Edges = n.NumEdges()
	for i := range n.gates {
		s.ByType[n.gates[i].Type]++
	}
	s.PIs = s.ByType[Input]
	s.POs = s.ByType[Output]
	s.DFFs = s.ByType[DFF]
	s.Obs = s.ByType[Obs]
	s.Depth = n.MaxLevel()
	if n.fanout == nil {
		n.buildFanout()
	}
	for i := range n.gates {
		if l := len(n.fanout[i]); l > s.MaxFan {
			s.MaxFan = l
		}
	}
	if s.Gates > 0 {
		s.AvgFan = float64(s.Edges) / float64(s.Gates)
		nn := float64(s.Gates) * float64(s.Gates)
		s.Sparsity = 1 - float64(s.Edges)/nn
	}
	return s
}

// SortedTypes returns the gate types present in the stats in a stable
// order, for deterministic printing.
func (s Stats) SortedTypes() []GateType {
	types := make([]GateType, 0, len(s.ByType))
	for t := range s.ByType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	return types
}
