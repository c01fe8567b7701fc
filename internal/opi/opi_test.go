package opi

import (
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// scoapOracle is a perfect SCOAP-threshold predictor: positive iff the
// node's transformed observability attribute exceeds a cut. It lets the
// flow tests exercise the full predict→impact→insert→update loop without
// training a model: insertions lower cone observability, so positive
// predictions shrink and the flow terminates.
type scoapOracle struct {
	cut float64
}

func (o scoapOracle) PredictProbs(g *core.Graph) []float64 {
	out := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		if g.X.At(v, 3) > o.cut {
			out[v] = 1
		}
	}
	return out
}

// NewIncremental rescores the whole graph every round: the oracle has no
// cached state to update.
func (o scoapOracle) NewIncremental(g *core.Graph) core.IncrementalRun {
	return core.FullPass(o.PredictProbs).NewIncremental(g)
}

func buildBench(t testing.TB, seed int64, gates int) (*netlist.Netlist, *scoap.Measures, *core.Graph) {
	t.Helper()
	n := circuitgen.Generate("opi", circuitgen.Config{Seed: seed, NumGates: gates, ShadowFunnels: 8, ShadowGuard: 4})
	m := scoap.Compute(n)
	g := core.FromNetlist(n, m)
	return n, m, g
}

// oracleCut picks a cut such that a small fraction of nodes are positive.
func oracleCut(g *core.Graph, frac float64) float64 {
	vals := append([]float64(nil), make([]float64, 0, g.N)...)
	for v := 0; v < g.N; v++ {
		vals = append(vals, g.X.At(v, 3))
	}
	// selection by sorting
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	idx := int((1 - frac) * float64(len(vals)-1))
	return vals[idx]
}

func TestRunFlowTerminatesAndClearsPositives(t *testing.T) {
	n, m, g := buildBench(t, 1, 1200)
	oracle := scoapOracle{cut: oracleCut(g, 0.03)}
	res := RunFlow(n, m, g, oracle, FlowConfig{PerIteration: 16})
	if res.FinalPositives != 0 {
		t.Errorf("flow left %d positives after %d iterations", res.FinalPositives, res.Iterations)
	}
	if len(res.Targets) == 0 {
		t.Fatal("flow inserted nothing")
	}
	if got := n.CountType(netlist.Obs); got != len(res.Targets) {
		t.Errorf("netlist has %d OPs, result lists %d", got, len(res.Targets))
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("netlist invalid after flow: %v", err)
	}
	// Graph and netlist stayed in sync.
	if g.N != n.NumGates() {
		t.Errorf("graph N=%d, netlist=%d", g.N, n.NumGates())
	}
	// Incremental measures must match a full recompute.
	full := scoap.Compute(n)
	for v := int32(0); v < int32(n.NumGates()); v++ {
		if m.CO[v] != full.CO[v] {
			t.Fatalf("node %d: incremental CO %d != full %d", v, m.CO[v], full.CO[v])
		}
	}
}

func TestRunFlowRespectsMaxInsertions(t *testing.T) {
	n, m, g := buildBench(t, 2, 1200)
	oracle := scoapOracle{cut: oracleCut(g, 0.05)}
	res := RunFlow(n, m, g, oracle, FlowConfig{PerIteration: 8, MaxInsertions: 10})
	if len(res.Targets) > 10 {
		t.Errorf("inserted %d OPs, cap was 10", len(res.Targets))
	}
}

func TestImpactSelectionPrefersConeRoots(t *testing.T) {
	// Chain a->b->c (all "positive"): the impact of c (cone covers a, b)
	// must outrank a, so the first insertion lands at c.
	n := netlist.New("chain")
	pi := n.MustAddGate(netlist.Input, "pi")
	a := n.MustAddGate(netlist.Buf, "a", pi)
	b := n.MustAddGate(netlist.Buf, "b", a)
	c := n.MustAddGate(netlist.Buf, "c", b)
	n.MustAddGate(netlist.Output, "po", c)
	positives := make([]bool, n.NumGates())
	positives[a], positives[b], positives[c] = true, true, true
	sel := selectByImpact(n, []int32{a, b, c}, positives, FlowConfig{}.withDefaults())
	if len(sel) != 1 || sel[0] != c {
		t.Errorf("selected %v, want [%d] (cone root only)", sel, c)
	}
}

func TestIndustrialBaselineClearsThreshold(t *testing.T) {
	n, m, _ := buildBench(t, 3, 1200)
	// Pick a threshold that leaves some difficult nodes.
	cut := CalibrateCOThreshold(m, syntheticLabels(n, m), 0.1)
	targets := IndustrialBaseline(n, m, BaselineConfig{COThreshold: cut, PerIteration: 16})
	if len(targets) == 0 {
		t.Skip("no nodes above threshold on this seed")
	}
	for v := int32(0); v < int32(n.NumGates()); v++ {
		if !insertable(n, v) {
			continue
		}
		if m.CO[v] > cut && !observedSet(n)[v] {
			t.Fatalf("node %d still difficult (CO %d > %d)", v, m.CO[v], cut)
		}
	}
	full := scoap.Compute(n)
	for v := int32(0); v < int32(n.NumGates()); v++ {
		if m.CO[v] != full.CO[v] {
			t.Fatalf("node %d: incremental CO %d != full %d", v, m.CO[v], full.CO[v])
		}
	}
}

// syntheticLabels labels the worst 2% of nodes by CO as positive; enough
// for calibration tests.
func syntheticLabels(n *netlist.Netlist, m *scoap.Measures) []int {
	labels := make([]int, n.NumGates())
	cut := CalibrateCOThreshold(m, allOnes(n.NumGates()), 0.98)
	for v := range labels {
		if m.CO[v] > cut && insertable(n, int32(v)) {
			labels[v] = 1
		}
	}
	return labels
}

func allOnes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestFlowBeatsBaselineOnOPCount(t *testing.T) {
	// Same difficulty criterion for both flows; the impact-ranked flow
	// must reach "no difficult nodes" with no more observation points
	// than worst-first insertion — the Table 3 #OPs story.
	nA, mA, gA := buildBench(t, 5, 2500)
	cut := oracleCut(gA, 0.03)
	flowRes := RunFlow(nA, mA, gA, scoapOracle{cut: cut}, FlowConfig{PerIteration: 16})

	nB, mB, gB := buildBench(t, 5, 2500)
	// Same cut expressed on raw CO for the baseline: the oracle compares
	// log1p(CO) > cut  ⇔  CO > expm1(cut).
	rawCut := int32(expm1(cut))
	_ = gB
	baseRes := IndustrialBaseline(nB, mB, BaselineConfig{COThreshold: rawCut, PerIteration: 16})

	if len(flowRes.Targets) == 0 || len(baseRes) == 0 {
		t.Skip("no difficult nodes on this seed")
	}
	t.Logf("flow OPs = %d, baseline OPs = %d", len(flowRes.Targets), len(baseRes))
	if len(flowRes.Targets) > len(baseRes) {
		t.Errorf("impact flow used more OPs (%d) than the baseline (%d)",
			len(flowRes.Targets), len(baseRes))
	}
}

func expm1(x float64) float64 {
	// local helper to avoid importing math for one call
	e := 1.0
	term := 1.0
	for i := 1; i < 20; i++ {
		term *= x / float64(i)
		e += term
	}
	return e - 1
}

func TestEvaluateCountsOPs(t *testing.T) {
	n, m, g := buildBench(t, 7, 800)
	oracle := scoapOracle{cut: oracleCut(g, 0.02)}
	RunFlow(n, m, g, oracle, FlowConfig{PerIteration: 8})
	ev := Evaluate(n, fault.TPGConfig{MaxPatterns: 2048, Seed: 1})
	if ev.OPs != n.CountType(netlist.Obs) {
		t.Errorf("evaluation OPs = %d, netlist has %d", ev.OPs, n.CountType(netlist.Obs))
	}
	if ev.Coverage <= 0 || ev.Coverage > 1 {
		t.Errorf("coverage = %v", ev.Coverage)
	}
	if ev.Patterns <= 0 {
		t.Errorf("patterns = %d", ev.Patterns)
	}
}

func TestCalibrateCOThreshold(t *testing.T) {
	n, m, _ := buildBench(t, 9, 600)
	labels := syntheticLabels(n, m)
	cut := CalibrateCOThreshold(m, labels, 0.1)
	// At q=0.1, ~90% of positives must lie above the threshold.
	above, total := 0, 0
	for v, l := range labels {
		if l == 1 {
			total++
			if m.CO[v] > cut {
				above++
			}
		}
	}
	if total == 0 {
		t.Skip("no positives")
	}
	// Ties at the quantile value can push extra positives to the cut itself,
	// so allow slack below the nominal 90%.
	if frac := float64(above) / float64(total); frac < 0.6 {
		t.Errorf("only %.2f of positives above calibrated threshold", frac)
	}
	// Empty labels fall back to a huge threshold.
	if CalibrateCOThreshold(m, make([]int, n.NumGates()), 0.1) != 1<<20 {
		t.Error("empty calibration should return sentinel")
	}
}

func TestCalibrateCOThresholdClampsQuantile(t *testing.T) {
	// q outside [0,1] used to index out of range (q>1 panics, q<0
	// indexes negatively); both must clamp to the boundary quantiles.
	n, m, _ := buildBench(t, 9, 600)
	labels := syntheticLabels(n, m)
	lo := CalibrateCOThreshold(m, labels, 0)
	hi := CalibrateCOThreshold(m, labels, 1)
	if got := CalibrateCOThreshold(m, labels, -0.5); got != lo {
		t.Errorf("q=-0.5 -> %d, want the q=0 threshold %d", got, lo)
	}
	if got := CalibrateCOThreshold(m, labels, 1.5); got != hi {
		t.Errorf("q=1.5 -> %d, want the q=1 threshold %d", got, hi)
	}
}

func TestObservedSetSkipsFaninlessObs(t *testing.T) {
	// A malformed netlist can carry an Obs cell with no fanin; observedSet
	// used to panic on Fanin(op)[0].
	n := netlist.New("malformed")
	pi := n.MustAddGate(netlist.Input, "pi")
	b := n.MustAddGate(netlist.Buf, "b", pi)
	n.MustAddGate(netlist.Output, "po", b)
	op, err := n.InsertObservationPoint(b)
	if err != nil {
		t.Fatal(err)
	}
	n.Gate(op).Fanin = nil // simulate the malformed input
	for v, observed := range observedSet(n) {
		if observed {
			t.Errorf("fanin-less Obs cell observed %d, want nothing", v)
		}
	}
}
