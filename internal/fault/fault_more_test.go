package fault

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/netlist"
)

func TestObservabilityNorXnorNand(t *testing.T) {
	// NOR and NAND propagate like OR and AND; XNOR like XOR.
	n := netlist.New("h3")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	c := n.MustAddGate(netlist.Input, "c")
	nor := n.MustAddGate(netlist.Nor, "nor", a, b)
	xn := n.MustAddGate(netlist.Xnor, "xn", nor, c)
	n.MustAddGate(netlist.Output, "po", xn)
	sim := NewSimulator(n)
	sim.Batch(rand.New(rand.NewSource(9)))
	vals, obs := sim.Values(), sim.Obs()
	if obs[nor] != ^uint64(0) || obs[c] != ^uint64(0) {
		t.Error("XNOR inputs must always be observable")
	}
	// NOR input a observable when b = 0.
	if obs[a] != ^vals[b] {
		t.Errorf("obs(a) = %x, want %x", obs[a], ^vals[b])
	}

	n2 := netlist.New("h4")
	a2 := n2.MustAddGate(netlist.Input, "a")
	b2 := n2.MustAddGate(netlist.Input, "b")
	nand := n2.MustAddGate(netlist.Nand, "nand", a2, b2)
	n2.MustAddGate(netlist.Output, "po", nand)
	sim2 := NewSimulator(n2)
	sim2.Batch(rand.New(rand.NewSource(10)))
	if sim2.Obs()[a2] != sim2.Values()[b2] {
		t.Error("NAND input observable iff sibling is 1")
	}
}

func TestFaultUniverseGrowsWithOPs(t *testing.T) {
	n := circuitgen.Generate("u2", circuitgen.Config{Seed: 13, NumGates: 300})
	before := len(FaultUniverse(n))
	if _, err := n.InsertObservationPoint(int32(n.NumGates() / 2)); err != nil {
		t.Fatal(err)
	}
	after := len(FaultUniverse(n))
	// An OP is a sink: it adds no faults of its own.
	if after != before {
		t.Errorf("universe %d -> %d; OPs must not add faults", before, after)
	}
}

func TestGenerateTestsStallStops(t *testing.T) {
	// A circuit with an undetectable region: x AND 0-ish guard of
	// extremely low probability; generation must stop by stall, not run
	// the full budget.
	n := netlist.New("stall")
	a := n.MustAddGate(netlist.Input, "a")
	guard := a
	for i := 0; i < 40; i++ {
		g := n.MustAddGate(netlist.Input, "")
		guard = n.MustAddGate(netlist.And, "", guard, g)
	}
	n.MustAddGate(netlist.Output, "po", guard)
	res := GenerateTests(n, TPGConfig{MaxPatterns: 1 << 20, StallWords: 4, Seed: 1})
	if res.PatternsSimulated >= 1<<20 {
		t.Errorf("stall did not stop generation: simulated %d", res.PatternsSimulated)
	}
	if res.Coverage >= 1 {
		t.Errorf("deep AND chain should leave faults undetected")
	}
	if len(res.UndetectedSample) == 0 {
		t.Error("undetected sample should be populated")
	}
}

// TestGenerateTestsHugeBudget: the largest pattern budget must run like
// any budget the stall criterion ends first, not overflow into zero
// simulated words and zero coverage.
func TestGenerateTestsHugeBudget(t *testing.T) {
	n := circuitgen.Generate("huge", circuitgen.Config{Seed: 15, NumGates: 200})
	want := GenerateTests(n, TPGConfig{MaxPatterns: 1 << 30, Seed: 3})
	got := GenerateTests(n, TPGConfig{MaxPatterns: math.MaxInt, Seed: 3})
	if want.PatternsSimulated >= 1<<30 {
		t.Fatalf("stall never stopped the 1<<30 budget")
	}
	if got.PatternsSimulated != want.PatternsSimulated || got.Detected != want.Detected {
		t.Fatalf("MaxInt budget: %d simulated, %d detected; 1<<30 budget: %d, %d",
			got.PatternsSimulated, got.Detected, want.PatternsSimulated, want.Detected)
	}
}

func TestGenerateTestsTargetCoverageStops(t *testing.T) {
	n := circuitgen.Generate("tc", circuitgen.Config{Seed: 14, NumGates: 1500})
	full := GenerateTests(n, TPGConfig{MaxPatterns: 8192, Seed: 2})
	if full.Coverage < 0.9 {
		t.Skip("design unexpectedly hard")
	}
	half := GenerateTests(n, TPGConfig{MaxPatterns: 8192, Seed: 2, TargetCoverage: 0.5})
	if half.PatternsSimulated >= full.PatternsSimulated {
		t.Errorf("target coverage did not stop early: %d vs %d",
			half.PatternsSimulated, full.PatternsSimulated)
	}
	if half.Coverage < 0.5 {
		t.Errorf("stopped below target: %v", half.Coverage)
	}
}

func TestObservabilityCountsRoundsUpPatterns(t *testing.T) {
	n := netlist.New("r")
	a := n.MustAddGate(netlist.Input, "a")
	n.MustAddGate(netlist.Output, "po", a)
	counts := ObservabilityCounts(n, 70, 1) // rounds to 128
	if counts[a] != 128 {
		t.Errorf("counts = %d, want 128 (two words)", counts[a])
	}
}

func TestWideGatePropagationPrefixSuffix(t *testing.T) {
	// 5-input AND: input i observable iff all other inputs are 1. Verify
	// the prefix/suffix computation against the naive product.
	n := netlist.New("wide")
	ins := make([]int32, 5)
	for i := range ins {
		ins[i] = n.MustAddGate(netlist.Input, "")
	}
	g := n.MustAddGate(netlist.And, "g", ins...)
	n.MustAddGate(netlist.Output, "po", g)
	sim := NewSimulator(n)
	sim.Batch(rand.New(rand.NewSource(15)))
	vals, obs := sim.Values(), sim.Obs()
	for i, in := range ins {
		want := ^uint64(0)
		for j, other := range ins {
			if j != i {
				want &= vals[other]
			}
		}
		if obs[in] != want {
			t.Errorf("input %d obs = %x, want %x", i, obs[in], want)
		}
	}
}

func TestDetectionProbabilityMatchesTheory(t *testing.T) {
	// A 3-input AND of PIs: s-a-0 at the output needs all inputs 1
	// (P = 1/8). Over many patterns the observed rate should be close.
	n := netlist.New("p")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	c := n.MustAddGate(netlist.Input, "c")
	g := n.MustAddGate(netlist.And, "g", a, b, c)
	n.MustAddGate(netlist.Output, "po", g)
	sim := NewSimulator(n)
	rng := rand.New(rand.NewSource(16))
	hits, total := 0, 0
	for w := 0; w < 512; w++ {
		sim.Batch(rng)
		hits += bits.OnesCount64(sim.Values()[g] & sim.Obs()[g])
		total += 64
	}
	rate := float64(hits) / float64(total)
	if rate < 0.10 || rate > 0.15 {
		t.Errorf("excitation rate %.4f, want ≈ 0.125", rate)
	}
}

// wideGateCircuit is a circuitgen design whose multi-input gates take 2
// to 8 fanins; the test fails unless it holds AND/NAND/OR/NOR gates of
// every width from 3 to 8.
func wideGateCircuit(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	n := circuitgen.Generate("wide", circuitgen.Config{Seed: seed, NumGates: 400, MaxFanin: 8})
	widths := map[int]bool{}
	for id := int32(0); id < int32(n.NumGates()); id++ {
		switch n.Type(id) {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			widths[len(n.Fanin(id))] = true
		}
	}
	for k := 3; k <= 8; k++ {
		if !widths[k] {
			t.Fatalf("seed %d: no %d-input AND/NAND/OR/NOR gate", seed, k)
		}
	}
	return n
}

// TestBatchAllocatesNothing: after its first call, a 64-pattern batch
// allocates nothing, also through the suffix products of wide
// AND/NAND/OR/NOR gates in the observability pass.
func TestBatchAllocatesNothing(t *testing.T) {
	sim := NewSimulator(wideGateCircuit(t, 3))
	rng := rand.New(rand.NewSource(1))
	sim.Batch(rng)
	if a := testing.AllocsPerRun(20, func() { sim.Batch(rng) }); a != 0 {
		t.Fatalf("Batch allocated %v times per call after the first", a)
	}
}
