package core

import (
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/scoap"
)

// FuzzForward feeds arbitrary parsed .bench netlists through inference:
// whatever the parser accepts, up to ~400 nodes, must score without
// panicking, with the tiled pass's logits and every ForwardFull
// embedding == the untiled training forward, and with PredictProbs ==
// a fresh incremental session's probabilities.
func FuzzForward(f *testing.F) {
	f.Add("INPUT(a)\nINPUT(b)\ng = AND(a, b)\nq = DFF(g)\nw = OR(q, b)\nOUTPUT(w)\nOBS(q)\n")
	f.Add("INPUT(n2)\nn1 = NOT(n2)\nOUTPUT(n1)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nx = XOR(a, b, c)\ny = XNOR(x, a)\nz = NAND(a, b)\nOUTPUT(y)\nOUTPUT(z)\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := netlist.Read(strings.NewReader(src))
		if err != nil {
			return // parser rejected it; nothing to score
		}
		g := FromNetlist(n, scoap.Compute(n))
		if g.N > 400 {
			return
		}
		m := MustNewModel(Config{Dims: []int{5, 6, 7}, FCDims: []int{6}, NumClasses: 2, Seed: 1})
		checkTiledMatchesTraining(t, "fuzz", m, g)
		if !sameProbs(m.PredictProbs(g), m.NewIncremental(g).Probs()) {
			t.Error("PredictProbs differs from a fresh incremental session")
		}
	})
}
