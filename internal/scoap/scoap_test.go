package scoap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuitgen"
	"repro/internal/netlist"
)

// buildChain constructs PI -> AND(a,b) -> OR(.,c) -> PO with hand-checked
// SCOAP values.
func buildChain(t testing.TB) (*netlist.Netlist, []int32) {
	t.Helper()
	n := netlist.New("chain")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	c := n.MustAddGate(netlist.Input, "c")
	g1 := n.MustAddGate(netlist.And, "g1", a, b)
	g2 := n.MustAddGate(netlist.Or, "g2", g1, c)
	po := n.MustAddGate(netlist.Output, "po", g2)
	return n, []int32{a, b, c, g1, g2, po}
}

func TestComputeHandValues(t *testing.T) {
	n, ids := buildChain(t)
	a, b, c, g1, g2 := ids[0], ids[1], ids[2], ids[3], ids[4]
	m := Compute(n)

	// Controllability.
	for _, pi := range []int32{a, b, c} {
		if m.CC0[pi] != 1 || m.CC1[pi] != 1 {
			t.Errorf("PI %d CC = (%d,%d), want (1,1)", pi, m.CC0[pi], m.CC1[pi])
		}
	}
	// AND: CC1 = CC1(a)+CC1(b)+1 = 3; CC0 = min(CC0)+1 = 2.
	if m.CC1[g1] != 3 || m.CC0[g1] != 2 {
		t.Errorf("AND CC = (%d,%d), want (2,3)", m.CC0[g1], m.CC1[g1])
	}
	// OR: CC0 = CC0(g1)+CC0(c)+1 = 2+1+1 = 4; CC1 = min(CC1(g1),CC1(c))+1 = 2.
	if m.CC0[g2] != 4 || m.CC1[g2] != 2 {
		t.Errorf("OR CC = (%d,%d), want (4,2)", m.CC0[g2], m.CC1[g2])
	}

	// Observability. PO net g2: 0. g1 through OR needs c=0: CO = 0+CC0(c)+1 = 2.
	if m.CO[g2] != 0 {
		t.Errorf("CO(g2) = %d, want 0", m.CO[g2])
	}
	if m.CO[g1] != 2 {
		t.Errorf("CO(g1) = %d, want 2", m.CO[g1])
	}
	// a through AND needs b=1: CO = CO(g1)+CC1(b)+1 = 2+1+1 = 4.
	if m.CO[a] != 4 || m.CO[b] != 4 {
		t.Errorf("CO(a,b) = (%d,%d), want (4,4)", m.CO[a], m.CO[b])
	}
	// c through OR needs g1=0: CO = 0+CC0(g1)+1 = 3.
	if m.CO[c] != 3 {
		t.Errorf("CO(c) = %d, want 3", m.CO[c])
	}
}

func TestXorControllability(t *testing.T) {
	n := netlist.New("xor")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	x := n.MustAddGate(netlist.Xor, "x", a, b)
	y := n.MustAddGate(netlist.Xnor, "y", a, b)
	n.MustAddGate(netlist.Output, "p", x)
	n.MustAddGate(netlist.Output, "q", y)
	m := Compute(n)
	// XOR of two PIs: CC0 = min(1+1, 1+1)+1 = 3; CC1 likewise 3.
	if m.CC0[x] != 3 || m.CC1[x] != 3 {
		t.Errorf("XOR CC = (%d,%d), want (3,3)", m.CC0[x], m.CC1[x])
	}
	if m.CC0[y] != 3 || m.CC1[y] != 3 {
		t.Errorf("XNOR CC = (%d,%d), want (3,3)", m.CC0[y], m.CC1[y])
	}
	// Observability of a through XOR: CO(x)=0 + min(CC0(b),CC1(b)) + 1 = 2.
	if m.CO[a] != 2 {
		t.Errorf("CO(a) = %d, want 2", m.CO[a])
	}
}

func TestNotAndNandRules(t *testing.T) {
	n := netlist.New("inv")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	inv := n.MustAddGate(netlist.Not, "inv", a)
	nand := n.MustAddGate(netlist.Nand, "nd", inv, b)
	n.MustAddGate(netlist.Output, "po", nand)
	m := Compute(n)
	if m.CC0[inv] != 2 || m.CC1[inv] != 2 {
		t.Errorf("NOT CC = (%d,%d), want (2,2)", m.CC0[inv], m.CC1[inv])
	}
	// NAND: CC0 = CC1(inv)+CC1(b)+1 = 2+1+1 = 4; CC1 = min(CC0)+1 = 2.
	if m.CC0[nand] != 4 || m.CC1[nand] != 2 {
		t.Errorf("NAND CC = (%d,%d), want (4,2)", m.CC0[nand], m.CC1[nand])
	}
}

func TestUnobservableDanglingNet(t *testing.T) {
	n := netlist.New("dangle")
	a := n.MustAddGate(netlist.Input, "a")
	g := n.MustAddGate(netlist.Buf, "g", a) // no fanout
	b := n.MustAddGate(netlist.Input, "b")
	n.MustAddGate(netlist.Output, "po", b)
	m := Compute(n)
	if m.CO[g] != Unobservable {
		t.Errorf("CO(dangling) = %d, want Unobservable", m.CO[g])
	}
}

func TestDFFBoundary(t *testing.T) {
	n := netlist.New("dff")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	g := n.MustAddGate(netlist.And, "g", a, b)
	q := n.MustAddGate(netlist.DFF, "q", g)
	h := n.MustAddGate(netlist.And, "h", q, a)
	n.MustAddGate(netlist.Output, "po", h)
	m := Compute(n)
	// Scan flop output is fully controllable.
	if m.CC0[q] != 1 || m.CC1[q] != 1 {
		t.Errorf("DFF CC = (%d,%d), want (1,1)", m.CC0[q], m.CC1[q])
	}
	// Scan flop input net g is fully observable.
	if m.CO[g] != 0 {
		t.Errorf("CO(g) = %d, want 0 (scan capture)", m.CO[g])
	}
}

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	n := circuitgen.Generate("inc", circuitgen.Config{Seed: 11, NumGates: 1200})
	m := Compute(n)

	// Find a poorly observable internal node and observe it.
	var worst int32 = -1
	var worstCO int32 = -1
	for id := int32(0); id < int32(n.NumGates()); id++ {
		typ := n.Type(id)
		if typ == netlist.Output || typ == netlist.Obs || typ == netlist.Input {
			continue
		}
		co := m.CO[id]
		if co != Unobservable && co > worstCO {
			worst, worstCO = id, co
		}
	}
	if worst < 0 {
		t.Fatal("no candidate node found")
	}
	op, err := n.InsertObservationPoint(worst)
	if err != nil {
		t.Fatal(err)
	}
	m.UpdateAfterObservationPoint(n, op)

	full := Compute(n)
	for id := int32(0); id < int32(n.NumGates()); id++ {
		if m.CC0[id] != full.CC0[id] || m.CC1[id] != full.CC1[id] {
			t.Fatalf("cell %d CC mismatch: inc (%d,%d) full (%d,%d)",
				id, m.CC0[id], m.CC1[id], full.CC0[id], full.CC1[id])
		}
		if m.CO[id] != full.CO[id] {
			t.Fatalf("cell %d CO mismatch: inc %d full %d", id, m.CO[id], full.CO[id])
		}
	}
	if m.CO[worst] != 0 {
		t.Errorf("observed node CO = %d, want 0", m.CO[worst])
	}
}

// TestIncrementalRandomInsertionsMatchCompute inserts observation points
// at random cells (DFFs and primary inputs included, some observed
// twice) of register-rich designs. After every insertion the measures
// must be == a full Compute, and the returned list must be exactly the
// cells whose CO changed, in decreasing ID.
func TestIncrementalRandomInsertionsMatchCompute(t *testing.T) {
	insertions, dffTargets := 0, 0
	for _, seed := range []int64{21, 22} {
		n := circuitgen.Generate("rnd", circuitgen.Config{Seed: seed, NumGates: 500})
		if n.CountType(netlist.DFF) == 0 {
			t.Fatal("design has no DFFs")
		}
		m := Compute(n)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 120; k++ {
			target := int32(rng.Intn(n.NumGates()))
			if typ := n.Type(target); typ == netlist.Output || typ == netlist.Obs {
				continue
			}
			if n.Type(target) == netlist.DFF {
				dffTargets++
			}
			before := append([]int32(nil), m.CO...)
			op, err := n.InsertObservationPoint(target)
			if err != nil {
				t.Fatal(err)
			}
			changed := m.UpdateAfterObservationPoint(n, op)
			insertions++

			full := Compute(n)
			for id := range full.CO {
				if m.CC0[id] != full.CC0[id] || m.CC1[id] != full.CC1[id] || m.CO[id] != full.CO[id] {
					t.Fatalf("seed %d insertion %d: cell %d is (%d,%d,%d), Compute (%d,%d,%d)", seed, k, id,
						m.CC0[id], m.CC1[id], m.CO[id], full.CC0[id], full.CC1[id], full.CO[id])
				}
			}
			var want []int32
			for id := int32(len(before)) - 1; id >= 0; id-- {
				if m.CO[id] != before[id] {
					want = append(want, id)
				}
			}
			if fmt.Sprint(changed) != fmt.Sprint(want) {
				t.Fatalf("seed %d insertion %d: changed %v, want %v", seed, k, changed, want)
			}
		}
	}
	if insertions < 200 || dffTargets == 0 {
		t.Fatalf("%d insertions, %d at DFFs: too few to count", insertions, dffTargets)
	}
}

// TestIncrementalCellFallingTwiceIsListedOnce observes a net whose
// observability reaches x through two branches, the cheaper one through
// the lower-ID fanout, so x's CO falls twice in one relaxation: it must
// be relaxed, and listed, once.
func TestIncrementalCellFallingTwiceIsListedOnce(t *testing.T) {
	n := netlist.New("twice")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	x := n.MustAddGate(netlist.And, "x", a, b)
	g1 := n.MustAddGate(netlist.Buf, "g1", x)
	g2 := n.MustAddGate(netlist.Not, "g2", x)
	y := n.MustAddGate(netlist.And, "y", g1, g2)
	m := Compute(n)
	op, err := n.InsertObservationPoint(y)
	if err != nil {
		t.Fatal(err)
	}
	changed := m.UpdateAfterObservationPoint(n, op)
	if want := []int32{y, g2, g1, x, b, a}; fmt.Sprint(changed) != fmt.Sprint(want) {
		t.Fatalf("changed %v, want %v", changed, want)
	}
	if full := Compute(n); fmt.Sprint(m.CO) != fmt.Sprint(full.CO) {
		t.Fatalf("CO %v, Compute %v", m.CO, full.CO)
	}
}

func TestQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		n := circuitgen.Generate("q", circuitgen.Config{Seed: seed, NumGates: 400})
		m := Compute(n)
		lv := n.Levels()
		for id := int32(0); id < int32(n.NumGates()); id++ {
			// Controllability is at least 1 everywhere.
			if m.CC0[id] < 1 || m.CC1[id] < 1 {
				return false
			}
			// Non-source cells cost strictly more than their cheapest
			// fanin to control to 0 (every SCOAP rule adds 1).
			if !n.Type(id).IsControllableSource() && n.Type(id) != netlist.Obs && len(n.Fanin(id)) > 0 {
				cheapest := Unobservable
				for _, f := range n.Fanin(id) {
					c := m.CC0[f]
					if m.CC1[f] < c {
						c = m.CC1[f]
					}
					if c < cheapest {
						cheapest = c
					}
				}
				if lv[id] > 0 && m.CC0[id] != Unobservable && m.CC0[id] <= cheapest && n.Type(id) != netlist.Output {
					return false
				}
			}
			// Sinks are observable for free.
			if n.Type(id).IsObservationSink() {
				if m.CO[n.Fanin(id)[0]] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestAttributes(t *testing.T) {
	n, ids := buildChain(t)
	m := Compute(n)
	attrs := m.Attributes(n, 1000)
	if len(attrs) != n.NumGates() {
		t.Fatalf("attrs len = %d", len(attrs))
	}
	g1 := ids[3]
	want := [4]float64{1, 2, 3, 2} // LL=1, CC0=2, CC1=3, CO=2
	if attrs[g1] != want {
		t.Errorf("attrs(g1) = %v, want %v", attrs[g1], want)
	}
	// Clamping applies to Unobservable.
	n2 := netlist.New("d")
	a := n2.MustAddGate(netlist.Input, "a")
	g := n2.MustAddGate(netlist.Buf, "g", a)
	_ = g
	b := n2.MustAddGate(netlist.Input, "b")
	n2.MustAddGate(netlist.Output, "po", b)
	m2 := Compute(n2)
	at2 := m2.Attributes(n2, 500)
	if at2[g][3] != 500 {
		t.Errorf("clamped CO = %v, want 500", at2[g][3])
	}
}

func BenchmarkComputeFull20k(b *testing.B) {
	n := circuitgen.Generate("b", circuitgen.Config{Seed: 1, NumGates: 20000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(n)
	}
}

// BenchmarkIncrementalUpdate times one observation-point insertion and
// its relaxation per iteration, each at a cell not yet observed, drawn in
// a seeded order. Every 256 insertions the netlist and measures are
// cloned afresh off the clock, so no iteration relaxes an insertion that
// was already applied.
func BenchmarkIncrementalUpdate(b *testing.B) {
	base := circuitgen.Generate("b", circuitgen.Config{Seed: 1, NumGates: 20000})
	baseMeas := Compute(base)
	var cands []int32
	for _, v := range rand.New(rand.NewSource(1)).Perm(base.NumGates()) {
		if typ := base.Type(int32(v)); typ != netlist.Input && typ != netlist.Output {
			cands = append(cands, int32(v))
		}
	}
	var n *netlist.Netlist
	var m *Measures
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			n, m = base.Clone(), baseMeas.Clone()
			b.StartTimer()
		}
		op, err := n.InsertObservationPoint(cands[i%len(cands)])
		if err != nil {
			b.Fatal(err)
		}
		m.UpdateAfterObservationPoint(n, op)
	}
}
