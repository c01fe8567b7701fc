package netlist

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildC17 constructs the classic ISCAS-85 c17 benchmark, a useful tiny
// fixture shared by several tests.
func buildC17(t testing.TB) (*Netlist, map[string]int32) {
	t.Helper()
	n := New("c17")
	ids := make(map[string]int32)
	add := func(name string, typ GateType, fanin ...int32) int32 {
		id, err := n.AddGate(typ, name, fanin...)
		if err != nil {
			t.Fatalf("AddGate(%s): %v", name, err)
		}
		ids[name] = id
		return id
	}
	g1 := add("1", Input)
	g2 := add("2", Input)
	g3 := add("3", Input)
	g6 := add("6", Input)
	g7 := add("7", Input)
	g10 := add("10", Nand, g1, g3)
	g11 := add("11", Nand, g3, g6)
	g16 := add("16", Nand, g2, g11)
	g19 := add("19", Nand, g11, g7)
	g22 := add("22", Nand, g10, g16)
	g23 := add("23", Nand, g16, g19)
	add("po22", Output, g22)
	add("po23", Output, g23)
	return n, ids
}

func TestC17Structure(t *testing.T) {
	n, ids := buildC17(t)
	if got, want := n.NumGates(), 13; got != want {
		t.Errorf("NumGates = %d, want %d", got, want)
	}
	if got, want := n.NumEdges(), 14; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if got := len(n.PrimaryInputs()); got != 5 {
		t.Errorf("PIs = %d, want 5", got)
	}
	if got := len(n.PrimaryOutputs()); got != 2 {
		t.Errorf("POs = %d, want 2", got)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Fanout of gate 11 is {16, 19}.
	fo := n.Fanout(ids["11"])
	if len(fo) != 2 || fo[0] != ids["16"] || fo[1] != ids["19"] {
		t.Errorf("Fanout(11) = %v, want [16 19] ids", fo)
	}
}

func TestLevels(t *testing.T) {
	n, ids := buildC17(t)
	lv := n.Levels()
	cases := map[string]int32{
		"1": 0, "2": 0, "3": 0, "6": 0, "7": 0,
		"10": 1, "11": 1, "16": 2, "19": 2, "22": 3, "23": 3,
	}
	for name, want := range cases {
		if got := lv[ids[name]]; got != want {
			t.Errorf("level(%s) = %d, want %d", name, got, want)
		}
	}
	if n.MaxLevel() != 4 { // POs are one past the deepest NANDs
		t.Errorf("MaxLevel = %d, want 4", n.MaxLevel())
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	n, _ := buildC17(t)
	pos := make(map[int32]int)
	for i, id := range n.TopoOrder() {
		pos[id] = i
	}
	for id := int32(0); id < int32(n.NumGates()); id++ {
		for _, f := range n.Fanin(id) {
			if pos[f] >= pos[id] {
				t.Fatalf("topo order violated: fanin %d not before %d", f, id)
			}
		}
	}
}

func TestCones(t *testing.T) {
	n, ids := buildC17(t)
	cone := n.FaninCone(ids["22"], 0)
	want := map[int32]bool{ids["10"]: true, ids["16"]: true, ids["1"]: true,
		ids["3"]: true, ids["2"]: true, ids["11"]: true, ids["6"]: true}
	if len(cone) != len(want) {
		t.Fatalf("FaninCone(22) = %v, want %d nodes", cone, len(want))
	}
	for _, id := range cone {
		if !want[id] {
			t.Errorf("unexpected cone member %d", id)
		}
	}
	// Limit is honored.
	if got := len(n.FaninCone(ids["22"], 3)); got != 3 {
		t.Errorf("limited cone size = %d, want 3", got)
	}
	// Fanout cone of input 3 reaches both POs.
	fc := n.FanoutCone(ids["3"], 0)
	if len(fc) != 8 {
		t.Errorf("FanoutCone(3) = %v (len %d), want 8 nodes", fc, len(fc))
	}
}

func TestObservationPointInsertion(t *testing.T) {
	n, ids := buildC17(t)
	gates, edges := n.NumGates(), n.NumEdges()
	op, err := n.InsertObservationPoint(ids["11"])
	if err != nil {
		t.Fatalf("InsertObservationPoint: %v", err)
	}
	if n.NumGates() != gates+1 || n.NumEdges() != edges+1 {
		t.Errorf("after insertion gates=%d edges=%d, want %d/%d", n.NumGates(), n.NumEdges(), gates+1, edges+1)
	}
	if n.Type(op) != Obs {
		t.Errorf("inserted type = %v, want Obs", n.Type(op))
	}
	if got := n.Fanin(op); len(got) != 1 || got[0] != ids["11"] {
		t.Errorf("op fanin = %v, want [%d]", got, ids["11"])
	}
	if ops := n.ObservationPoints(); len(ops) != 1 || ops[0] != op {
		t.Errorf("ObservationPoints = %v, want [%d]", ops, op)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after insertion: %v", err)
	}
	// Observing a PO is rejected.
	if _, err := n.InsertObservationPoint(n.PrimaryOutputs()[0]); err == nil {
		t.Error("observing a primary output should fail")
	}
}

func TestAddGateErrors(t *testing.T) {
	n := New("bad")
	if _, err := n.AddGate(And, "a"); err == nil {
		t.Error("AND with no fanin should fail")
	}
	a := n.MustAddGate(Input, "a")
	if _, err := n.AddGate(Not, "x", a, a); err == nil {
		t.Error("NOT with two fanin should fail")
	}
	if _, err := n.AddGate(And, "y", a, 99); err == nil {
		t.Error("out-of-range fanin should fail")
	}
	if _, err := n.AddGate(And, "z", a, 1); err == nil {
		t.Error("forward fanin reference should fail")
	}
}

func TestRoundTrip(t *testing.T) {
	n, _ := buildC17(t)
	n.MustAddGate(Obs, "", 6)
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if m.NumGates() != n.NumGates() || m.NumEdges() != n.NumEdges() {
		t.Fatalf("round trip gates/edges %d/%d, want %d/%d", m.NumGates(), m.NumEdges(), n.NumGates(), n.NumEdges())
	}
	for _, typ := range []GateType{Input, Output, Nand, Obs} {
		if m.CountType(typ) != n.CountType(typ) {
			t.Errorf("count(%v) = %d, want %d", typ, m.CountType(typ), n.CountType(typ))
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
}

func TestReadOutOfOrderDeclarations(t *testing.T) {
	src := `# scrambled
OUTPUT(z)
z = AND(x, y)
y = NOT(b)
x = OR(a, b)
INPUT(a)
INPUT(b)
`
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if n.NumGates() != 6 {
		t.Fatalf("NumGates = %d, want 6", n.NumGates())
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n.Name != "scrambled" {
		t.Errorf("Name = %q, want scrambled", n.Name)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"undeclared":  "OUTPUT(zz)\n",
		"cycle":       "a = NOT(b)\nb = NOT(a)\nOUTPUT(a)\n",
		"dup":         "INPUT(a)\nINPUT(a)\n",
		"unknownType": "INPUT(a)\nz = FROB(a, a)\n",
		"syntax":      "INPUT(a)\nthis is not a line\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

func TestGateTypeParseRoundTrip(t *testing.T) {
	for typ := GateType(0); typ < numGateTypes; typ++ {
		got, err := ParseGateType(typ.String())
		if err != nil {
			t.Fatalf("ParseGateType(%s): %v", typ, err)
		}
		if got != typ {
			t.Errorf("ParseGateType(%s) = %v", typ, got)
		}
	}
	if _, err := ParseGateType("BOGUS"); err == nil {
		t.Error("ParseGateType(BOGUS) should fail")
	}
}

func TestComputeStats(t *testing.T) {
	n, _ := buildC17(t)
	s := n.ComputeStats()
	if s.Gates != 13 || s.Edges != 14 || s.PIs != 5 || s.POs != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxFan != 2 {
		t.Errorf("MaxFan = %d, want 2", s.MaxFan)
	}
	if s.Sparsity <= 0.9 {
		t.Errorf("Sparsity = %f, want > 0.9", s.Sparsity)
	}
	types := s.SortedTypes()
	for i := 1; i < len(types); i++ {
		if types[i-1] >= types[i] {
			t.Errorf("SortedTypes not sorted: %v", types)
		}
	}
}

// randomNetlist builds a random valid netlist from a seed; used by
// property-based tests.
func randomNetlist(seed int64, size int) *Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := New("rand")
	nPI := 4 + rng.Intn(8)
	for i := 0; i < nPI; i++ {
		n.MustAddGate(Input, "")
	}
	types := []GateType{And, Or, Nand, Nor, Xor, Xnor, Not, Buf}
	for i := 0; i < size; i++ {
		t := types[rng.Intn(len(types))]
		k := t.MinFanin()
		if t.MaxFanin() < 0 {
			k += rng.Intn(3)
		}
		fanin := make([]int32, k)
		for j := range fanin {
			fanin[j] = int32(rng.Intn(n.NumGates()))
		}
		n.MustAddGate(t, "", fanin...)
	}
	// Terminate a few nets with POs.
	for i := 0; i < 3; i++ {
		n.MustAddGate(Output, "", int32(nPI+rng.Intn(size)))
	}
	return n
}

func TestQuickRandomNetlistsValidateAndRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		n := randomNetlist(seed, 50)
		if err := n.Validate(); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			return false
		}
		m, err := Read(&buf)
		if err != nil {
			t.Logf("seed %d: read: %v", seed, err)
			return false
		}
		return m.NumGates() == n.NumGates() && m.NumEdges() == n.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickLevelsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		n := randomNetlist(seed, 80)
		lv := n.Levels()
		for id := int32(0); id < int32(n.NumGates()); id++ {
			if n.Type(id).IsControllableSource() {
				if lv[id] != 0 {
					return false
				}
				continue
			}
			for _, fin := range n.Fanin(id) {
				if lv[id] <= lv[fin] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	n, ids := buildC17(t)
	c := n.Clone()
	if _, err := c.InsertObservationPoint(ids["11"]); err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != n.NumGates()+1 {
		t.Errorf("clone mutation changed sizes unexpectedly")
	}
	if n.CountType(Obs) != 0 {
		t.Errorf("mutating clone affected original")
	}
}

// TestAddGateExtendsBuiltCaches grows random netlists by random AddGate
// and InsertObservationPoint calls, each netlist with a different subset
// of its caches built, and checks after every call that each built cache
// is == its recomputation on a Clone, and that unbuilt caches stay
// unbuilt.
func TestAddGateExtendsBuiltCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for mask := 0; mask < 16; mask++ {
		n := randomNetlist(int64(mask), 60)
		if mask&1 != 0 {
			n.Fanout(0)
		}
		if mask&2 != 0 {
			n.TopoOrder()
		}
		if mask&4 != 0 {
			n.Levels()
		}
		if mask&8 != 0 {
			n.IDByName("")
		}
		for k := 0; k < 40; k++ {
			target := int32(rng.Intn(n.NumGates()))
			if typ := n.Type(target); typ == Output || typ == Obs {
				continue
			}
			if k%2 == 0 {
				if _, err := n.InsertObservationPoint(target); err != nil {
					t.Fatal(err)
				}
			} else {
				// A gate reading target on both pins, named after an
				// existing cell half the time so the index must move.
				name := fmt.Sprintf("x%d", k)
				if k%4 == 1 {
					name = n.Gate(int32(rng.Intn(n.NumGates()))).Name
				}
				n.MustAddGate(And, name, target, target)
			}
			c := n.Clone()
			if n.fanout != nil && fmt.Sprint(n.fanout) != fmt.Sprint(fanoutsOf(c)) {
				t.Fatalf("mask %d step %d: fanout %v, recomputed %v", mask, k, n.fanout, fanoutsOf(c))
			}
			if n.topo != nil && fmt.Sprint(n.topo) != fmt.Sprint(c.TopoOrder()) {
				t.Fatalf("mask %d step %d: topo %v, recomputed %v", mask, k, n.topo, c.TopoOrder())
			}
			if n.levels != nil && fmt.Sprint(n.levels) != fmt.Sprint(c.Levels()) {
				t.Fatalf("mask %d step %d: levels %v, recomputed %v", mask, k, n.levels, c.Levels())
			}
			if n.nameIdx != nil {
				c.IDByName("")
				if fmt.Sprint(n.nameIdx) != fmt.Sprint(c.nameIdx) {
					t.Fatalf("mask %d step %d: name index differs from its recomputation", mask, k)
				}
			}
			if (n.fanout != nil) != (mask&1 != 0) || (n.levels != nil) != (mask&4 != 0) || (n.nameIdx != nil) != (mask&8 != 0) {
				t.Fatalf("mask %d step %d: a cache was built or dropped by AddGate", mask, k)
			}
		}
	}
}

// fanoutsOf returns every cell's fanout list of a netlist.
func fanoutsOf(n *Netlist) [][]int32 {
	out := make([][]int32, n.NumGates())
	for i := range out {
		out[i] = n.Fanout(int32(i))
	}
	return out
}

func BenchmarkFanoutBuild(b *testing.B) {
	n := randomNetlist(1, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.fanout = nil
		n.buildFanout()
	}
}

func BenchmarkFaninCone500(b *testing.B) {
	n := randomNetlist(2, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.FaninCone(int32(n.NumGates()-5), 500)
	}
}
