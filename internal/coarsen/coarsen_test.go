package coarsen

import (
	"math"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
	"repro/internal/sparse"
)

func testNetlist(t *testing.T, seed int64, gates int) *netlist.Netlist {
	t.Helper()
	n := circuitgen.Generate("coarse", circuitgen.Config{
		Seed: seed, NumGates: gates, DFFFrac: 0.1, ShadowFunnels: 2,
	})
	if err := n.Validate(); err != nil {
		t.Fatalf("generator produced invalid netlist: %v", err)
	}
	return n
}

func TestOptionsRejected(t *testing.T) {
	n := testNetlist(t, 1, 200)
	for _, ratio := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := New(n, ratio); err == nil {
			t.Errorf("New accepted invalid ratio %v", ratio)
		}
	}
	if _, err := New(nil, 0.5); err == nil {
		t.Error("New accepted a nil netlist")
	}
}

// TestIdentityRatio is the anchor invariant: at ratio 1.0 the
// coarsening must be the identity mapping and the projected graph's
// inference bit-identical to the fine pipeline.
func TestIdentityRatio(t *testing.T) {
	n := testNetlist(t, 7, 600)
	meas := scoap.Compute(n)
	g := core.FromNetlist(n, meas)
	m, err := core.NewModel(core.Config{Dims: []int{6, 8, 10}, FCDims: []int{8}, NumClasses: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := m.PredictProbs(g)

	c, err := New(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(n); err != nil {
		t.Fatal(err)
	}
	if c.NumSuper() != n.NumGates() || c.AchievedRatio() != 1.0 {
		t.Fatalf("ratio 1.0 produced %d supernodes for %d cells", c.NumSuper(), n.NumGates())
	}
	for v, s := range c.Owner {
		if s != int32(v) {
			t.Fatalf("Owner[%d] = %d, want identity", v, s)
		}
	}
	cg := c.ProjectGraph(g)
	if cg.N != g.N {
		t.Fatalf("projected graph has %d nodes, want %d", cg.N, g.N)
	}
	for i := range g.X.Data {
		if cg.X.Data[i] != g.X.Data[i] {
			t.Fatalf("projected attribute %d differs", i)
		}
	}
	lifted := c.Lift(m.PredictProbs(cg))
	for v := range want {
		if lifted[v] != want[v] {
			t.Fatalf("lifted prob at %d is %v, fine is %v", v, lifted[v], want[v])
		}
	}
}

// TestFFRMergesChain checks the strategy on a hand-built funnel: a
// buffer chain is one fanout-free region and must collapse into its
// head, while the stem (fanout 2) and all boundary cells stay apart.
func TestFFRMergesChain(t *testing.T) {
	n := netlist.New("chain")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	stem := n.MustAddGate(netlist.And, "stem", a, b) // fanout 2: head of nothing
	c1 := n.MustAddGate(netlist.Buf, "c1", stem)     // chain...
	c2 := n.MustAddGate(netlist.Not, "c2", c1)       //
	c3 := n.MustAddGate(netlist.And, "c3", c2, stem) // chain head
	out := n.MustAddGate(netlist.Output, "out", c3)  // boundary
	_ = out

	c, err := New(n, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(n); err != nil {
		t.Fatal(err)
	}
	if c.Owner[c1] != c.Owner[c3] || c.Owner[c2] != c.Owner[c3] {
		t.Errorf("chain not merged into its head: owners %v", c.Owner)
	}
	if c.Owner[stem] == c.Owner[c3] {
		t.Error("stem (fanout 2) merged into downstream region")
	}
	for _, v := range []int32{a, b, out} {
		if len(c.Members[c.Owner[v]]) != 1 {
			t.Errorf("boundary cell %d not a singleton", v)
		}
	}
}

// TestFFRSizeCap: with ratio 0.5 (cap 2) a 3-cell chain cannot fully
// collapse.
func TestFFRSizeCap(t *testing.T) {
	n := netlist.New("cap")
	a := n.MustAddGate(netlist.Input, "a")
	c1 := n.MustAddGate(netlist.Buf, "c1", a)
	c2 := n.MustAddGate(netlist.Buf, "c2", c1)
	c3 := n.MustAddGate(netlist.Buf, "c3", c2)
	n.MustAddGate(netlist.Output, "out", c3)

	c, err := New(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(n); err != nil {
		t.Fatal(err)
	}
	for _, members := range c.Members {
		if len(members) > 2 {
			t.Errorf("region of %d cells exceeds cap 2", len(members))
		}
	}
	if c.Owner[c2] != c.Owner[c3] {
		t.Errorf("expected c2 to merge into c3 under cap 2: owners %v", c.Owner)
	}
	if c.Owner[c1] == c.Owner[c2] {
		t.Errorf("cap 2 exceeded: c1 joined the full region: owners %v", c.Owner)
	}
}

// TestDeterminism: identical inputs must coarsen identically.
func TestDeterminism(t *testing.T) {
	n := testNetlist(t, 13, 500)
	a, err := New(n, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(n.Clone(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Owner) != len(b.Owner) {
		t.Fatal("owner lengths differ")
	}
	for v := range a.Owner {
		if a.Owner[v] != b.Owner[v] {
			t.Fatalf("nondeterministic owner at %d: %d vs %d", v, a.Owner[v], b.Owner[v])
		}
	}
}

// TestProjectGraphAggregation checks the max/any-positive projection
// rules directly against a naive recomputation.
func TestProjectGraphAggregation(t *testing.T) {
	n := testNetlist(t, 17, 300)
	g := core.FromNetlist(n, scoap.Compute(n))
	// Paint labels so merged regions exercise all three outcomes.
	for v := 0; v < g.N; v++ {
		switch v % 3 {
		case 0:
			g.Labels[v] = 1
		case 1:
			g.Labels[v] = 0
		default:
			g.Labels[v] = -1
		}
	}
	c, err := New(n, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cg := c.ProjectGraph(g)
	if cg.N != c.NumSuper() {
		t.Fatalf("projected %d nodes, want %d", cg.N, c.NumSuper())
	}
	for s := 0; s < cg.N; s++ {
		wantLabel := -1
		for k := 0; k < core.InputDim; k++ {
			want := math.Inf(-1)
			for _, v := range c.Members[s] {
				if x := g.X.At(int(v), k); x > want {
					want = x
				}
			}
			if got := cg.X.At(s, k); got != want {
				t.Fatalf("supernode %d attr %d: got %v, want max %v", s, k, got, want)
			}
		}
		for _, v := range c.Members[s] {
			switch g.Labels[v] {
			case 1:
				wantLabel = 1
			case 0:
				if wantLabel != 1 {
					wantLabel = 0
				}
			}
		}
		if cg.Labels[s] != wantLabel {
			t.Fatalf("supernode %d label %d, want %d", s, cg.Labels[s], wantLabel)
		}
	}
	// Adjacency: total projected edge weight must equal the fine
	// cross-region pin count.
	crossPins := 0
	for v := int32(0); v < int32(n.NumGates()); v++ {
		for _, f := range n.Fanin(v) {
			if c.Owner[f] != c.Owner[v] {
				crossPins++
			}
		}
	}
	var projected float64
	for s := int32(0); s < int32(cg.N); s++ {
		_, vals := cg.PredEntries(s)
		for _, w := range vals {
			projected += w
		}
	}
	if int(projected) != crossPins {
		t.Fatalf("projected edge weight %v, fine cross pins %d", projected, crossPins)
	}
}

func TestLiftShapes(t *testing.T) {
	n := testNetlist(t, 19, 200)
	c, err := New(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	coarse := make([]float64, c.NumSuper())
	for s := range coarse {
		coarse[s] = float64(s)
	}
	lifted := c.Lift(coarse)
	for v, s := range c.Owner {
		if lifted[v] != float64(s) {
			t.Fatalf("lift at %d: got %v, want %v", v, lifted[v], float64(s))
		}
	}
	mustPanic(t, "short dst", func() { c.LiftInto(make([]float64, 1), coarse) })
	mustPanic(t, "short src", func() { c.LiftInto(make([]float64, c.NumFine()), coarse[:1]) })
	mustPanic(t, "graph size mismatch", func() { c.ProjectGraph(core.NewGraph(sparse.NewCOO(3, 3))) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestValidateDetectsCorruption drives Validate's error paths by
// corrupting a correct coarsening one field at a time.
func TestValidateDetectsCorruption(t *testing.T) {
	n := testNetlist(t, 23, 200)
	build := func() *Coarsening {
		c, err := New(n, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := build().Validate(n); err != nil {
		t.Fatalf("clean coarsening rejected: %v", err)
	}

	c := build()
	c.Owner = c.Owner[:len(c.Owner)-1]
	if c.Validate(n) == nil {
		t.Error("short Owner accepted")
	}

	c = build()
	c.Owner[0], c.Owner[1] = c.Owner[1], c.Owner[0]
	if c.Validate(n) == nil {
		t.Error("Owner/Members disagreement accepted")
	}

	c = build()
	c.Members[0] = append([]int32(nil), c.Members[0]...)
	c.Members[0][0] = int32(n.NumGates()) + 5
	if c.Validate(n) == nil {
		t.Error("out-of-range member accepted")
	}
}

// TestLiveMirror exercises the in-package live-coarsening mirror:
// AddObservationPoint must extend the mapping and the coarse graph
// together, ReprojectRow must report exactly the rows
// it changes, and the maintained coarse graph must equal a fresh
// projection of the mutated fine graph.
func TestLiveMirror(t *testing.T) {
	n := testNetlist(t, 9, 300)
	meas := scoap.Compute(n)
	g := core.FromNetlist(n, meas)
	c, err := New(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cg := c.ProjectGraph(g)

	if _, err := c.AddObservationPoint(cg, -1); err == nil {
		t.Error("AddObservationPoint accepted a negative target")
	}
	if _, err := c.AddObservationPoint(cg, int32(c.NumFine()+5)); err == nil {
		t.Error("AddObservationPoint accepted an out-of-range target")
	}

	var target int32 = -1
	for v := int32(0); v < int32(n.NumGates()); v++ {
		switch n.Type(v) {
		case netlist.Input, netlist.Output, netlist.Obs:
		default:
			target = v
		}
		if target >= 0 {
			break
		}
	}
	if target < 0 {
		t.Fatal("no insertable cell")
	}
	fineBefore, superBefore := c.NumFine(), c.NumSuper()
	n.MustAddGate(netlist.Obs, "", target)
	g.AddObservationPoint(target)
	opSuper, err := c.AddObservationPoint(cg, target)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumFine() != fineBefore+1 || c.NumSuper() != superBefore+1 {
		t.Fatalf("mapping not extended: fine %d->%d, super %d->%d",
			fineBefore, c.NumFine(), superBefore, c.NumSuper())
	}
	if c.Owner[fineBefore] != opSuper || len(c.Members[opSuper]) != 1 {
		t.Fatalf("new cell %d not a singleton of supernode %d", fineBefore, opSuper)
	}
	if err := c.Validate(n); err != nil {
		t.Fatalf("mirror left coarsening invalid: %v", err)
	}

	// Raise one attribute of the target's fine row: reprojecting its
	// region must report the change (max-aggregation over the region
	// picks it up), and reprojecting every region must resync the live
	// graph with a fresh projection.
	s := c.Owner[target]
	g.X.Row(int(target))[0] = cg.X.Row(int(s))[0] + 1
	if !c.ReprojectRow(cg, g, s) {
		t.Error("ReprojectRow missed a raised fine attribute")
	}
	for s2 := int32(0); s2 < int32(c.NumSuper()); s2++ {
		c.ReprojectRow(cg, g, s2)
	}
	fresh := c.ProjectGraph(g)
	for s2 := 0; s2 < cg.N; s2++ {
		lr, fr := cg.X.Row(s2), fresh.X.Row(s2)
		for k := range lr {
			if lr[k] != fr[k] {
				t.Fatalf("supernode %d attr %d: live %v, fresh %v", s2, k, lr[k], fr[k])
			}
		}
	}
	if c.ReprojectRow(cg, g, s) {
		t.Error("ReprojectRow reported a change on an already-synced row")
	}
}
