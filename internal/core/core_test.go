package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/netlist"
	"repro/internal/nn"
	"repro/internal/scoap"
	"repro/internal/sparse"
)

// testGraph generates a small labeled graph. Labels here are synthetic
// (derived from a hidden structural rule) — good enough to verify that
// training machinery learns; behavioural labels are exercised by the
// dataset package tests.
func testGraph(seed int64, gates int) *Graph {
	n := circuitgen.Generate("t", circuitgen.Config{Seed: seed, NumGates: gates})
	m := scoap.Compute(n)
	g := FromNetlist(n, m)
	// Hidden rule: positive iff observability is in the worst few percent.
	vals := make([]float64, g.N)
	for id := 0; id < g.N; id++ {
		vals[id] = g.X.At(id, 3)
	}
	threshold := percentile(vals, 0.95)
	for id := 0; id < g.N; id++ {
		if g.X.At(id, 3) >= threshold {
			g.Labels[id] = 1
		} else {
			g.Labels[id] = 0
		}
	}
	return g
}

func percentile(src []float64, q float64) float64 {
	vals := append([]float64(nil), src...)
	sort.Float64s(vals)
	idx := int(q * float64(len(vals)-1))
	return vals[idx]
}

func tinyConfig(seed int64) Config {
	return Config{Dims: []int{6, 8}, FCDims: []int{8}, NumClasses: 2, Seed: seed}
}

func TestGraphFromNetlist(t *testing.T) {
	n := netlist.New("g")
	a := n.MustAddGate(netlist.Input, "a")
	b := n.MustAddGate(netlist.Input, "b")
	x := n.MustAddGate(netlist.And, "x", a, b)
	n.MustAddGate(netlist.Output, "po", x)
	m := scoap.Compute(n)
	g := FromNetlist(n, m)
	if g.N != 4 || g.Pred().NNZ() != 3 {
		t.Fatalf("N=%d edges=%d", g.N, g.Pred().NNZ())
	}
	// Predecessors of x are a and b; successors of a is x.
	pl := g.PredList(x)
	if len(pl) != 2 {
		t.Errorf("PredList(x) = %v", pl)
	}
	sl := g.SuccList(a)
	if len(sl) != 1 || sl[0] != x {
		t.Errorf("SuccList(a) = %v", sl)
	}
	// Attributes are log1p compressed: PI has LL=0 → 0, CC0=1 → log1p(1).
	if g.X.At(int(a), 0) != 0 || math.Abs(g.X.At(int(a), 1)-math.Log1p(1)) > 1e-15 {
		t.Errorf("PI attributes = %v", g.X.Row(int(a)))
	}
}

func TestAddObservationPointIncrementalGraph(t *testing.T) {
	g := testGraph(1, 300)
	n0, e0 := g.N, g.Pred().NNZ()
	target := int32(n0 / 2)
	p := g.AddObservationPoint(target)
	if g.N != n0+1 || g.Pred().NNZ() != e0+1 {
		t.Fatalf("after insertion N=%d edges=%d", g.N, g.Pred().NNZ())
	}
	if int(p) != n0 {
		t.Errorf("new node id = %d, want %d", p, n0)
	}
	pl := g.PredList(p)
	if len(pl) != 1 || pl[0] != target {
		t.Errorf("PredList(op) = %v", pl)
	}
	found := false
	for _, s := range g.SuccList(target) {
		if s == p {
			found = true
		}
	}
	if !found {
		t.Error("target does not list op as successor")
	}
	// New node attributes follow the [0,1,1,0] convention (transformed).
	want := AttributeVector(0, 1, 1, 0)
	for j := 0; j < InputDim; j++ {
		if g.X.At(int(p), j) != want[j] {
			t.Errorf("op attr[%d] = %v, want %v", j, g.X.At(int(p), j), want[j])
		}
	}
}

// mirroredGraph builds a circuit graph with NewGraph over a test-side
// COO mirror of its tuples: one per fanin pin, plus one extra gate that
// reads node 3 on two pins (a weight-2 entry). The mirror is returned so
// that insertions can append the same tuples to it.
func mirroredGraph(seed int64, gates int) (*Graph, *sparse.COO) {
	n := circuitgen.Generate("t", circuitgen.Config{Seed: seed, NumGates: gates})
	nodes := n.NumGates() + 1
	mirror := sparse.NewCOO(nodes, nodes)
	for id := int32(0); id < int32(n.NumGates()); id++ {
		for _, f := range n.Fanin(id) {
			mirror.Append(id, f, 1)
		}
	}
	mirror.Append(int32(nodes-1), 3, 1)
	mirror.Append(int32(nodes-1), 3, 1)
	return NewGraph(mirror), mirror
}

// observeMirrored adds an observation point on target to g and the same
// tuple to its mirror.
func observeMirrored(g *Graph, mirror *sparse.COO, target int32) {
	p := g.AddObservationPoint(target)
	mirror.Grow(g.N, g.N)
	mirror.Append(p, target, 1)
}

// matchesMirror reports whether g's Pred() and Succ() are == a fresh
// ToCSR() of mirror and its Transpose(): RowPtr, ColIdx and Vals.
func matchesMirror(g *Graph, mirror *sparse.COO) bool {
	same := func(a, b *sparse.CSR) bool {
		return a.NumRows == b.NumRows && a.NumCols == b.NumCols && fmt.Sprint(a.RowPtr) == fmt.Sprint(b.RowPtr) &&
			fmt.Sprint(a.ColIdx) == fmt.Sprint(b.ColIdx) && fmt.Sprint(a.Vals) == fmt.Sprint(b.Vals)
	}
	want := mirror.ToCSR()
	return same(g.Pred(), want) && same(g.Succ(), want.Transpose())
}

// TestInPlaceCSRMatchesConversion inserts random observation points into
// circuit graphs with a duplicate fanin and checks, on the built graph
// and after every insertion, that its CSRs match a COO mirror that
// received the same tuples.
func TestInPlaceCSRMatchesConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for seed := int64(10); seed < 13; seed++ {
		g, mirror := mirroredGraph(seed, 250)
		if cols, vals := g.PredEntries(int32(g.N - 1)); len(cols) != 1 || cols[0] != 3 || vals[0] != 2 {
			t.Fatalf("seed %d: the two-pin gate's row is %v %v, want [3] [2]", seed, cols, vals)
		}
		if !matchesMirror(g, mirror) {
			t.Fatalf("seed %d: NewGraph's CSRs differ from a conversion of its tuples", seed)
		}
		for k := 0; k < 60; k++ {
			observeMirrored(g, mirror, int32(rng.Intn(g.N)))
			if !matchesMirror(g, mirror) {
				t.Fatalf("seed %d, insertion %d: in-place CSRs differ from a fresh conversion", seed, k)
			}
		}
	}
}

// TestCloneCopiesBuiltCSRs checks that a clone's CSRs match the source's
// tuples, and that observation points added to the clone leave the
// source's CSRs as they were while the clone's keep matching its own
// mirror.
func TestCloneCopiesBuiltCSRs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, mirror := mirroredGraph(20, 250)
	c, cmirror := g.Clone(), mirror.Clone()
	if !matchesMirror(c, cmirror) {
		t.Fatal("cloned CSRs differ from a conversion of the source's tuples")
	}
	for k := 0; k < 30; k++ {
		observeMirrored(c, cmirror, int32(rng.Intn(c.N)))
	}
	if !matchesMirror(g, mirror) {
		t.Fatal("insertions into the clone changed the source's CSRs")
	}
	if !matchesMirror(c, cmirror) {
		t.Fatal("the clone's CSRs differ from a conversion after insertions")
	}
}

// TestGradientCheck verifies the full manual backpropagation (wpr, wsu,
// encoders, FC head) against central-difference numerical gradients.
func TestGradientCheck(t *testing.T) {
	g := testGraph(3, 120)
	m := MustNewModel(tinyConfig(5))
	weights := []float64{1, 4}

	lossFn := func() float64 {
		logits := m.Forward(g)
		loss, _ := nn.WeightedCrossEntropy(logits, g.Labels, weights)
		return loss
	}

	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	loss := m.LossAndGrad(g, g.Labels, weights)
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}

	for _, p := range m.Params() {
		step := len(p.Data)/4 + 1
		for i := 0; i < len(p.Data); i += step {
			want := numGrad(lossFn, &p.Data[i])
			got := p.Grad[i]
			if math.Abs(got-want) > 2e-4*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %g numeric %g", p.Name, i, got, want)
			}
		}
	}
}

func numGrad(loss func() float64, theta *float64) float64 {
	const h = 1e-5
	orig := *theta
	*theta = orig + h
	lp := loss()
	*theta = orig - h
	lm := loss()
	*theta = orig
	return (lp - lm) / (2 * h)
}

// TestRecursiveMatchesMatrix is the correctness half of Figure 10: the
// naive per-node recursion and the sparse matrix formulation must agree.
func TestRecursiveMatchesMatrix(t *testing.T) {
	g := testGraph(7, 200)
	m := MustNewModel(tinyConfig(11))
	matrix := m.Predict(g)
	// Check a sample of nodes recursively (all would be slow by design).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		v := int32(rng.Intn(g.N))
		rec := m.InferNodeRecursive(g, v)
		if math.Abs(rec-matrix[v]) > 1e-9 {
			t.Errorf("node %d: recursive %g matrix %g", v, rec, matrix[v])
		}
	}
}

func TestTrainingLearnsStructuralRule(t *testing.T) {
	train := []*Graph{testGraph(21, 800), testGraph(22, 800)}
	test := testGraph(23, 800)
	m := MustNewModel(Config{Dims: []int{8, 16}, FCDims: []int{16}, NumClasses: 2, Seed: 1})
	opt := TrainOptions{Epochs: 180, LR: 0.05, Momentum: 0.9, LRDecay: 0.997, PosWeight: 4, ClipNorm: 5}
	hist, err := Train(m, train, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Errorf("loss did not decrease: %v -> %v", hist[0], hist[len(hist)-1])
	}
	acc := Accuracy(m, test, test.Labels)
	if acc < 0.9 {
		t.Errorf("unseen-graph accuracy = %v, want >= 0.9", acc)
	}
}

func TestParallelTrainingMatchesSerial(t *testing.T) {
	graphs := []*Graph{testGraph(31, 300), testGraph(32, 300), testGraph(33, 300)}
	opt := TrainOptions{Epochs: 1, LR: 0.05}

	m1 := MustNewModel(tinyConfig(77))
	opt.Workers = 1
	if _, err := Train(m1, graphs, nil, opt); err != nil {
		t.Fatal(err)
	}
	m2 := MustNewModel(tinyConfig(77))
	opt.Workers = 3
	if _, err := Train(m2, graphs, nil, opt); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Data {
			if math.Abs(p1[i].Data[j]-p2[i].Data[j]) > 1e-9 {
				t.Fatalf("param %s[%d] differs: %g vs %g", p1[i].Name, j, p1[i].Data[j], p2[i].Data[j])
			}
		}
	}
}

func TestSaveLoadModel(t *testing.T) {
	g := testGraph(41, 150)
	m := MustNewModel(tinyConfig(3))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	pred, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := pred.(*Model)
	if !ok {
		t.Fatalf("loaded %T, want *Model", pred)
	}
	a, b := m.Predict(g), m2.Predict(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs after load", i)
		}
	}
}

func TestMultiStageImprovesF1OnImbalanced(t *testing.T) {
	// The Figure 9 comparison in miniature: a single GCN trained directly
	// on the imbalanced data (no class weighting) versus the multi-stage
	// cascade, scored by F1.
	graphs := []*Graph{testGraph(51, 900), testGraph(52, 900)}
	test := testGraph(53, 900)
	trainOpt := TrainOptions{Epochs: 120, LR: 0.02, Momentum: 0.9, LRDecay: 0.99, ClipNorm: 5}

	single := MustNewModel(Config{Dims: []int{8, 16}, FCDims: []int{16}, NumClasses: 2, Seed: 5})
	if _, err := Train(single, graphs, nil, trainOpt); err != nil {
		t.Fatal(err)
	}
	singleF1 := f1Of(single.PredictLabels(test), test.Labels)

	mopt := DefaultMultiStageOptions()
	mopt.ModelCfg = Config{Dims: []int{8, 16}, FCDims: []int{16}, NumClasses: 2, Seed: 5}
	mopt.Train = trainOpt
	mopt.NumStages = 3
	ms, err := TrainMultiStage(graphs, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Stages) != 3 {
		t.Fatalf("trained %d stages, want 3", len(ms.Stages))
	}
	pred := ms.Predict(test)
	if len(pred) != test.N {
		t.Fatalf("prediction length %d", len(pred))
	}
	msF1 := f1Of(pred, test.Labels)
	t.Logf("single F1 = %.3f, multi-stage F1 = %.3f", singleF1, msF1)
	if msF1 <= singleF1 {
		t.Errorf("multi-stage F1 %.3f did not beat single GCN F1 %.3f", msF1, singleF1)
	}
	probs := ms.PredictProbs(test)
	if len(probs) != test.N {
		t.Fatalf("probs length %d", len(probs))
	}
}

func f1Of(pred, labels []int) float64 {
	tp, fp, fn := 0, 0, 0
	for i, l := range labels {
		switch {
		case l == 1 && pred[i] == 1:
			tp++
		case l == 1:
			fn++
		case l == 0 && pred[i] == 1:
			fp++
		}
	}
	if 2*tp+fp+fn == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewModel(Config{NumClasses: 2}); err == nil {
		t.Error("empty Dims should fail")
	}
	if _, err := NewModel(Config{Dims: []int{4}, NumClasses: 1}); err == nil {
		t.Error("single class should fail")
	}
	if _, err := NewModel(Config{Dims: []int{0}, NumClasses: 2}); err == nil {
		t.Error("zero dim should fail")
	}
}

func TestNumParamsAndClone(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	if m.NumParams() < 4*32+32*64+64*128 {
		t.Errorf("NumParams = %d, suspiciously small", m.NumParams())
	}
	c := m.Clone()
	c.Wpr.Data[0] = 123
	if m.Wpr.Data[0] == 123 {
		t.Error("clone shares parameter storage")
	}
}

func BenchmarkMatrixForward(b *testing.B) {
	g := testGraph(61, 5000)
	m := MustNewModel(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(g)
	}
}

func BenchmarkLossAndGrad(b *testing.B) {
	g := testGraph(62, 2000)
	m := MustNewModel(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LossAndGrad(g, g.Labels, nil)
	}
}

func BenchmarkRecursiveInferencePerNode(b *testing.B) {
	g := testGraph(63, 5000)
	m := MustNewModel(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InferNodeRecursive(g, int32(i%g.N))
	}
}
