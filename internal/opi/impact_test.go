package opi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

func TestExactImpactOnChain(t *testing.T) {
	// Oracle marks high-CO nodes positive. Observing the end of a
	// transparent chain drops the whole chain's CO, so its exact impact
	// must cover the chain; observing the head helps only the head.
	n := netlist.New("chain")
	pi := n.MustAddGate(netlist.Input, "pi")
	a := n.MustAddGate(netlist.Buf, "a", pi)
	b := n.MustAddGate(netlist.Buf, "b", a)
	c := n.MustAddGate(netlist.Buf, "c", b)
	// Block the chain from the PO with a wide AND guard so a, b, c are
	// all poorly observable.
	var guard int32 = pi
	for i := 0; i < 6; i++ {
		g := n.MustAddGate(netlist.Input, "")
		guard = n.MustAddGate(netlist.And, "", guard, g)
	}
	blocked := n.MustAddGate(netlist.And, "x", c, guard)
	n.MustAddGate(netlist.Output, "po", blocked)

	meas := scoap.Compute(n)
	g := core.FromNetlist(n, meas)
	oracle := scoapOracle{cut: 1.5} // log1p(CO) > 1.5 ⇔ CO > ~3.5

	probs := oracle.PredictProbs(g)
	impactC := ExactImpact(n, meas, g, oracle, probs, 0.5, c, 0)
	impactA := ExactImpact(n, meas, g, oracle, probs, 0.5, a, 0)
	if impactC <= impactA {
		t.Errorf("impact(c)=%d should exceed impact(a)=%d", impactC, impactA)
	}
	// The hypothetical evaluation must not mutate its inputs.
	if n.CountType(netlist.Obs) != 0 {
		t.Error("ExactImpact mutated the netlist")
	}
	if g.N != n.NumGates() {
		t.Error("ExactImpact mutated the graph")
	}
}

func TestExactImpactFlowMatchesStaticFixpoint(t *testing.T) {
	// Both ranking modes must drive the flow to zero positives; the exact
	// mode should never need more insertions on a transparent design.
	nA, mA, gA := buildBench(t, 12, 800)
	cut := oracleCut(gA, 0.02)
	resStatic := RunFlow(nA, mA, gA, scoapOracle{cut: cut}, FlowConfig{PerIteration: 8})

	nB, mB, gB := buildBench(t, 12, 800)
	resExact := RunFlow(nB, mB, gB, scoapOracle{cut: cut}, FlowConfig{
		PerIteration: 8, ExactImpact: 512,
	})
	if resStatic.FinalPositives != 0 || resExact.FinalPositives != 0 {
		t.Fatalf("flows did not converge: static %d, exact %d",
			resStatic.FinalPositives, resExact.FinalPositives)
	}
	t.Logf("static OPs = %d, exact OPs = %d", len(resStatic.Targets), len(resExact.Targets))
	if len(resExact.Targets) > len(resStatic.Targets)*3/2+2 {
		t.Errorf("exact ranking used far more OPs (%d) than static (%d)",
			len(resExact.Targets), len(resStatic.Targets))
	}
}

// TestExactImpactRoundPaysOneForwardPerCandidate: an exact-ranked round
// scores each of its K candidates' hypothetical graphs once and takes
// the graph's own scores from the flow's session, so it makes K
// whole-graph PredictProbs calls, not 2K.
func TestExactImpactRoundPaysOneForwardPerCandidate(t *testing.T) {
	n, m, g := buildBench(t, 12, 800)
	pred := &predictCounter{scoapOracle: scoapOracle{cut: oracleCut(g, 0.02)}}
	candidates := 0
	RunFlow(n, m, g, pred, FlowConfig{
		PerIteration: 8, MaxIterations: 1, ExactImpact: 1 << 20,
		Progress: func(_, positives, _ int) { candidates = positives },
	})
	if candidates == 0 {
		t.Fatal("the round had no candidates")
	}
	if pred.predicts != candidates {
		t.Fatalf("one exact round over %d candidates made %d PredictProbs calls, want %d",
			candidates, pred.predicts, candidates)
	}
}

// predictCounter counts PredictProbs calls; its sessions are the
// oracle's and do not count.
type predictCounter struct {
	scoapOracle
	predicts int
}

func (p *predictCounter) PredictProbs(g *core.Graph) []float64 {
	p.predicts++
	return p.scoapOracle.PredictProbs(g)
}
