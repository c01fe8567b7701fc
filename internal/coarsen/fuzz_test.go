package coarsen

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// FuzzCoarsen drives FFR coarsening over arbitrary parsed .bench DAGs:
// whatever the parser accepts must coarsen without panicking and
// satisfy the partition/monotonicity/boundary invariants at every
// swept ratio. On small inputs the strongest check runs too: at ratio
// 1.0 the projected graph must score bit-identically to the fine
// graph through a probe model, and at every ratio the lifted scores
// must equal each member's region score.
func FuzzCoarsen(f *testing.F) {
	f.Add(uint8(1),
		"INPUT(a)\nINPUT(b)\ng = AND(a, b)\nq = DFF(g)\nw = OR(q, b)\nOUTPUT(w)\nOBS(q)\n")
	f.Add(uint8(3),
		"INPUT(n2)\nn1 = NOT(n2)\nn3 = BUF(n1)\nn4 = NAND(n3, n2)\nOUTPUT(n4)\n")
	f.Add(uint8(0),
		"INPUT(a)\nINPUT(b)\nINPUT(c)\nx = XOR(a, b, c)\ny = XNOR(x, a)\nz = NAND(a, b)\nOUTPUT(y)\nOUTPUT(z)\n")
	ratios := []float64{1.0, 0.5, 0.25, 0.1}
	f.Fuzz(func(t *testing.T, ratioSel uint8, src string) {
		n, err := netlist.Read(bytes.NewReader([]byte(src)))
		if err != nil {
			return // parser rejected it; nothing to coarsen
		}
		if n.NumGates() == 0 || n.NumGates() > 2000 {
			return
		}
		if n.Validate() != nil {
			// The parser accepts some shapes (e.g. an OUTPUT cell with
			// fanout) that are not valid netlists; the coarsening
			// contract only covers netlists that pass Validate.
			return
		}
		ratio := ratios[int(ratioSel)%len(ratios)]
		c, err := New(n, ratio)
		if err != nil {
			t.Fatalf("New rejected a parsed netlist: %v", err)
		}
		if err := c.Validate(n); err != nil {
			t.Fatalf("invariants violated (ratio %v): %v", ratio, err)
		}
		if n.NumGates() > 400 {
			return // model probes only on small graphs
		}
		g := core.FromNetlist(n, scoap.Compute(n))
		m, err := core.NewModel(core.Config{Dims: []int{5, 6, 7}, FCDims: []int{6}, NumClasses: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		coarseProbs := m.PredictProbs(c.ProjectGraph(g))
		lifted := c.Lift(coarseProbs)
		for v, s := range c.Owner {
			if lifted[v] != coarseProbs[s] {
				t.Fatalf("lift broke region constancy at cell %d", v)
			}
		}
		if ratio == 1.0 {
			want := m.PredictProbs(g)
			for v := range want {
				if lifted[v] != want[v] {
					t.Fatalf("ratio 1.0 not bit-identical at cell %d: %v vs %v",
						v, lifted[v], want[v])
				}
			}
		}
	})
}
