package netlist

import (
	"strings"
	"testing"
)

func TestIDByName(t *testing.T) {
	n, ids := buildC17(t)
	id, ok := n.IDByName("16")
	if !ok || id != ids["16"] {
		t.Errorf("IDByName(16) = %d, %v", id, ok)
	}
	if _, ok := n.IDByName("nope"); ok {
		t.Error("IDByName should miss unknown names")
	}
	// The index refreshes after mutation.
	op, err := n.InsertObservationPoint(ids["11"])
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := n.IDByName("op_" + itoa(ids["11"])); !ok || got != op {
		t.Errorf("IDByName(op) = %d, %v", got, ok)
	}
}

func itoa(v int32) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestFlipFlopsAccessor(t *testing.T) {
	n := New("ff")
	a := n.MustAddGate(Input, "a")
	q1 := n.MustAddGate(DFF, "q1", a)
	q2 := n.MustAddGate(DFF, "q2", q1)
	n.MustAddGate(Output, "po", q2)
	ffs := n.FlipFlops()
	if len(ffs) != 2 || ffs[0] != q1 || ffs[1] != q2 {
		t.Errorf("FlipFlops = %v", ffs)
	}
}

func TestDeepChainParse(t *testing.T) {
	// A 5000-deep inverter chain exercises the reader's construction
	// depth.
	var sb strings.Builder
	sb.WriteString("INPUT(n0)\n")
	for i := 1; i <= 5000; i++ {
		sb.WriteString("n")
		sb.WriteString(itoa(int32(i)))
		sb.WriteString(" = NOT(n")
		sb.WriteString(itoa(int32(i - 1)))
		sb.WriteString(")\n")
	}
	sb.WriteString("OUTPUT(n5000)\n")
	n, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumGates() != 5002 {
		t.Fatalf("gates = %d", n.NumGates())
	}
	if n.MaxLevel() != 5001 { // 5000 inverters + the PO sink
		t.Errorf("depth = %d", n.MaxLevel())
	}
}

func TestWriteNamesCollide(t *testing.T) {
	// Two gates sharing a name must still round-trip (the writer
	// deduplicates).
	n := New("dup")
	a := n.MustAddGate(Input, "x")
	b := n.MustAddGate(Buf, "x", a) // duplicate name on purpose
	n.MustAddGate(Output, "po", b)
	var sb strings.Builder
	if err := Write(&sb, n); err != nil {
		t.Fatal(err)
	}
	m, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumGates() != n.NumGates() {
		t.Errorf("round trip lost gates: %d vs %d", m.NumGates(), n.NumGates())
	}
}

func TestStatsObsCount(t *testing.T) {
	n, ids := buildC17(t)
	n.MustAddGate(Obs, "", ids["10"])
	s := n.ComputeStats()
	if s.Obs != 1 {
		t.Errorf("stats Obs = %d", s.Obs)
	}
}

func TestFanoutConeLimit(t *testing.T) {
	n, ids := buildC17(t)
	fc := n.FanoutCone(ids["3"], 2)
	if len(fc) != 2 {
		t.Errorf("limited fanout cone = %v", fc)
	}
}
