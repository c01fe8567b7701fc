package refcheck

import (
	"strings"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// TestCoarsenDifferential is the acceptance gate for the coarsening
// subsystem: 60 seeded random circuits, each checked for build
// determinism, structural invariants, ratio-1.0 projection
// bit-identity, and lift ranking-order preservation across three
// ratios.
func TestCoarsenDifferential(t *testing.T) {
	const circuits = 60
	configs := RandomConfigs(2025, circuits)
	for i, cfg := range configs {
		n := circuitgen.Generate("coarsen", cfg)
		if err := n.Validate(); err != nil {
			t.Fatalf("circuit %d: invalid netlist: %v", i, err)
		}
		if err := CheckCoarsenNetlist(n, int64(4000+i)); err != nil {
			t.Errorf("circuit %d (gates=%d dff=%.2f): %v", i, n.NumGates(), cfg.DFFFrac, err)
		}
	}
}

// TestCoarsenDegenerateShapes covers the shapes most likely to break
// the clustering sweeps: a design that is almost all boundary cells
// (nothing to merge), a single straight-line cone, and disconnected
// components.
func TestCoarsenDegenerateShapes(t *testing.T) {
	t.Run("register dominated", func(t *testing.T) {
		n := circuitgen.Generate("regs", circuitgen.Config{
			Seed: 11, NumGates: 120, NumPIs: 8, Layers: 4, DFFFrac: 0.9})
		if err := CheckCoarsenNetlist(n, 501); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("single chain", func(t *testing.T) {
		src := "INPUT(a)\nx1 = NOT(a)\nx2 = BUF(x1)\nx3 = NOT(x2)\nx4 = BUF(x3)\nOUTPUT(x4)\n"
		n, err := netlist.Read(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckCoarsenNetlist(n, 502); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("disconnected components", func(t *testing.T) {
		src := "INPUT(a1)\nINPUT(a2)\nx1 = AND(a1, a2)\ny1 = NOT(x1)\nOUTPUT(y1)\n" +
			"INPUT(b1)\nINPUT(b2)\nx2 = OR(b1, b2)\ny2 = XOR(x2, b1)\nz2 = NAND(y2, x2)\nOUTPUT(z2)\n"
		n, err := netlist.Read(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckCoarsenNetlist(n, 503); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCoarsenLiftAfterInsertions pins the live-mirror contract end to
// end at the refcheck layer: after mirrored observation-point
// insertions the coarsening must still validate against the mutated
// netlist and its lift must still broadcast region scores exactly.
func TestCoarsenLiftAfterInsertions(t *testing.T) {
	n := circuitgen.Generate("mirror", circuitgen.Config{
		Seed: 17, NumGates: 150, NumPIs: 10, Layers: 6})
	g := core.FromNetlist(n, scoap.Compute(n))
	c, err := coarsen.New(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cg := c.ProjectGraph(g)

	inserted := 0
	for v := int32(0); v < int32(n.NumGates()) && inserted < 3; v++ {
		switch n.Type(v) {
		case netlist.Input, netlist.Output, netlist.Obs:
			continue
		}
		n.MustAddGate(netlist.Obs, "", v)
		g.AddObservationPoint(v)
		if _, err := c.AddObservationPoint(cg, v); err != nil {
			t.Fatal(err)
		}
		inserted++
	}
	if inserted == 0 {
		t.Fatal("no insertable cell found")
	}
	if err := c.Validate(n); err != nil {
		t.Fatalf("coarsening invalid after mirrored insertions: %v", err)
	}
	probs := make([]float64, c.NumSuper())
	for s := range probs {
		probs[s] = float64(s%7) / 7
	}
	lifted := c.Lift(probs)
	for v := range lifted {
		if lifted[v] != probs[c.Owner[v]] {
			t.Fatalf("cell %d: lifted %v, region %d scored %v", v, lifted[v], c.Owner[v], probs[c.Owner[v]])
		}
	}
}
