package refcheck

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/scoap"
)

// randomTree builds a fanout-free circuit (every cell drives at most
// one load): gates of 2 to maxFanin inputs, inverter/buffer links, scan
// flip-flops, one primary output at the root. On this class critical
// path tracing is provably exact, so the test can demand equality. With
// maxFanin 2 it draws no widths, so binary trees stay as they were.
func randomTree(rng *rand.Rand, maxDepth, maxFanin int) *netlist.Netlist {
	n := netlist.New("tree")
	var build func(depth int) int32
	build = func(depth int) int32 {
		if depth == 0 || rng.Intn(8) == 0 {
			return n.MustAddGate(netlist.Input, "")
		}
		switch rng.Intn(10) {
		case 0:
			return n.MustAddGate(netlist.Buf, "", build(depth-1))
		case 1:
			return n.MustAddGate(netlist.Not, "", build(depth-1))
		case 2:
			return n.MustAddGate(netlist.DFF, "", build(depth-1))
		default:
			types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
			t := types[rng.Intn(len(types))]
			fanin := make([]int32, 2)
			if maxFanin > 2 {
				fanin = make([]int32, 2+rng.Intn(maxFanin-1))
			}
			for i := range fanin {
				fanin[i] = build(depth - 1)
			}
			return n.MustAddGate(t, "", fanin...)
		}
	}
	n.MustAddGate(netlist.Output, "", build(maxDepth))
	return n
}

// randomDAG builds a small general circuit with reconvergent fanout,
// scan flops, and deliberately dangling (unobservable) regions: a
// handful of cells are routed to primary outputs, the rest are left
// floating so the structural-unobservability invariants get exercised.
func randomDAG(rng *rand.Rand, gates, inputs int) *netlist.Netlist {
	n := netlist.New("dag")
	ids := make([]int32, 0, gates+inputs)
	for i := 0; i < inputs; i++ {
		ids = append(ids, n.MustAddGate(netlist.Input, ""))
	}
	sources := inputs
	pick := func() int32 { return ids[rng.Intn(len(ids))] }
	for i := 0; i < gates; i++ {
		var id int32
		switch r := rng.Intn(12); {
		case r == 0:
			id = n.MustAddGate(netlist.Buf, "", pick())
		case r == 1:
			id = n.MustAddGate(netlist.Not, "", pick())
		case r == 2 && sources < MaxExhaustiveSources-4:
			id = n.MustAddGate(netlist.DFF, "", pick())
			sources++
		default:
			types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
			t := types[rng.Intn(len(types))]
			id = n.MustAddGate(t, "", pick(), pick())
		}
		ids = append(ids, id)
	}
	// Observe roughly a third of the most recent cells; everything not
	// reaching them stays structurally unobservable.
	for i := 0; i < 1+gates/12; i++ {
		n.MustAddGate(netlist.Output, "", ids[len(ids)-1-rng.Intn(len(ids)/3+1)])
	}
	return n
}

// feedsSinkDirectly reports whether some load of id is an observation
// sink (primary output, scan flop, or observation point).
func feedsSinkDirectly(n *netlist.Netlist, id int32) bool {
	for _, l := range n.Fanout(id) {
		if n.Type(l).IsObservationSink() {
			return true
		}
	}
	return false
}

// TestExhaustiveObsOnTrees: on fanout-free circuits, exhaustive
// observability and the bit-parallel CPT criterion must agree exactly,
// and SCOAP must mark exactly the observable nets as finite.
func TestExhaustiveObsOnTrees(t *testing.T) {
	checkObsOnTrees(t, 11, 2, 40, 25)
}

// TestExhaustiveObsOnWideTrees is TestExhaustiveObsOnTrees on trees of
// 2- to 8-input gates: there the bit-parallel simulator's observability
// pass runs its prefix and suffix products over more than two pins.
func TestExhaustiveObsOnWideTrees(t *testing.T) {
	checkObsOnTrees(t, 12, 8, 4000, 150)
}

// checkObsOnTrees draws up to tries trees of 2- to maxFanin-input gates
// from seed and checks the first want of them within the exhaustive
// budget.
func checkObsOnTrees(t *testing.T, seed int64, maxFanin, tries, want int) {
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	wide := 0 // AND/NAND/OR/NOR gates of more than two inputs checked
	for i := 0; i < tries && checked < want; i++ {
		n := randomTree(rng, 3+i%2, maxFanin)
		if len(Sources(n)) > 10 {
			continue // keep the exhaustive budget tiny
		}
		for id := int32(0); id < int32(n.NumGates()); id++ {
			switch n.Type(id) {
			case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
				if len(n.Fanin(id)) > 2 {
					wide++
				}
			}
		}
		if !IsFanoutFree(n) {
			t.Fatalf("tree %d: generator produced fanout", i)
		}
		exact, total, err := ExactObsCounts(n)
		if err != nil {
			t.Fatal(err)
		}
		cpt, cptTotal, err := CPTObsCounts(n)
		if err != nil {
			t.Fatal(err)
		}
		if cptTotal != total {
			t.Fatalf("tree %d: pattern totals differ: %d vs %d", i, cptTotal, total)
		}
		sm := scoap.Compute(n)
		for id := int32(0); id < int32(n.NumGates()); id++ {
			switch n.Type(id) {
			case netlist.Output, netlist.Obs:
				continue
			}
			if cpt[id] != exact[id] {
				t.Errorf("tree %d cell %d (%s): CPT count %d != exhaustive %d",
					i, id, n.Type(id), cpt[id], exact[id])
			}
			if (sm.CO[id] == scoap.Unobservable) != (exact[id] == 0) {
				t.Errorf("tree %d cell %d: SCOAP CO=%d vs exhaustive count %d",
					i, id, sm.CO[id], exact[id])
			}
		}
		checked++
	}
	if checked < want {
		t.Fatalf("only %d trees within exhaustive budget", checked)
	}
	if maxFanin > 2 && wide == 0 {
		t.Fatal("no checked tree has an AND/NAND/OR/NOR gate of more than two inputs")
	}
}

// TestExhaustiveObsInvariantsOnDAGs: on general reconvergent circuits
// the heuristics are approximations, but the structural invariants must
// hold: nets SCOAP finds no sink path for are exhaustively
// unobservable, and a net feeding a sink directly is observed under
// every pattern.
func TestExhaustiveObsInvariantsOnDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sawUnobservable := false
	for i := 0; i < 20; i++ {
		n := randomDAG(rng, 30+rng.Intn(25), 6)
		if err := n.Validate(); err != nil {
			t.Fatalf("dag %d: %v", i, err)
		}
		if len(Sources(n)) > 12 {
			continue
		}
		exact, total, err := ExactObsCounts(n)
		if err != nil {
			t.Fatal(err)
		}
		sm := scoap.Compute(n)
		for id := int32(0); id < int32(n.NumGates()); id++ {
			switch n.Type(id) {
			case netlist.Output, netlist.Obs:
				continue
			}
			if sm.CO[id] == scoap.Unobservable {
				sawUnobservable = true
				if exact[id] != 0 {
					t.Errorf("dag %d cell %d: SCOAP says unobservable but exhaustive count %d > 0", i, id, exact[id])
				}
			}
			if feedsSinkDirectly(n, id) && exact[id] != total {
				t.Errorf("dag %d cell %d (%s): feeds a sink but observed %d/%d patterns",
					i, id, n.Type(id), exact[id], total)
			}
		}
	}
	if !sawUnobservable {
		t.Error("no structurally unobservable net generated — invariant untested")
	}
}

// TestScanBoundaryObservabilityAgreement is the minimized regression
// for a scan-boundary disagreement the differential harness surfaced: a
// scan flip-flop output driving observable logic must not be reported
// unobservable.
func TestScanBoundaryObservabilityAgreement(t *testing.T) {
	n := netlist.New("scan")
	a := n.MustAddGate(netlist.Input, "a")
	d := n.MustAddGate(netlist.DFF, "d", a)
	b := n.MustAddGate(netlist.Buf, "b", d)
	n.MustAddGate(netlist.Output, "z", b)

	exact, total, err := ExactObsCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	if exact[d] != total {
		t.Fatalf("exhaustive: DFF output observed %d/%d patterns", exact[d], total)
	}
	if co := scoap.Compute(n).CO[d]; co == scoap.Unobservable {
		t.Fatal("SCOAP: DFF output unobservable")
	}
}
