package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randInput(rng *rand.Rand, r, c int) *tensor.Dense {
	d := tensor.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// numericalGrad estimates dLoss/dθ for a single scalar parameter entry by
// central differences.
func numericalGrad(loss func() float64, theta *float64) float64 {
	const h = 1e-6
	orig := *theta
	*theta = orig + h
	lp := loss()
	*theta = orig - h
	lm := loss()
	*theta = orig
	return (lp - lm) / (2 * h)
}

func TestLinearForwardShapesAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 3, 2, rng)
	copy(l.B.Data, []float64{10, 20})
	x := tensor.NewDense(4, 3) // zeros
	y := l.Forward(x)
	if y.Rows != 4 || y.Cols != 2 {
		t.Fatalf("shape %d×%d", y.Rows, y.Cols)
	}
	if y.At(0, 0) != 10 || y.At(3, 1) != 20 {
		t.Errorf("bias not applied: %v", y.Data)
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP("m", []int{5, 8, 6, 3}, rng)
	x := randInput(rng, 9, 5)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	weights := []float64{1, 2.5, 0.7}

	lossFn := func() float64 {
		logits := m.Forward(x)
		loss, _ := WeightedCrossEntropy(logits, labels, weights)
		return loss
	}

	// Analytic gradients.
	ZeroGrads(m.Params())
	logits := m.Forward(x)
	_, dlogits := WeightedCrossEntropy(logits, labels, weights)
	dx := m.Backward(dlogits)

	// Check a sample of parameter entries in every parameter tensor.
	for _, p := range m.Params() {
		step := len(p.Data)/5 + 1
		for i := 0; i < len(p.Data); i += step {
			want := numericalGrad(lossFn, &p.Data[i])
			got := p.Grad[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %g, numeric %g", p.Name, i, got, want)
			}
		}
	}

	// Check input gradients too.
	for _, i := range []int{0, 7, 22, 44} {
		want := numericalGrad(lossFn, &x.Data[i])
		if math.Abs(dx.Data[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("dX[%d]: analytic %g, numeric %g", i, dx.Data[i], want)
		}
	}
}

func TestWeightedCrossEntropyMasking(t *testing.T) {
	logits := tensor.FromRows([][]float64{{2, 0}, {0, 2}, {5, 5}})
	// Row 2 masked out.
	loss, grad := WeightedCrossEntropy(logits, []int{0, 1, -1}, nil)
	if loss <= 0 {
		t.Errorf("loss = %v, want > 0", loss)
	}
	for j := 0; j < 2; j++ {
		if grad.At(2, j) != 0 {
			t.Errorf("masked row has gradient %v", grad.Row(2))
		}
	}
	// All masked: zero loss, zero grad.
	l2, g2 := WeightedCrossEntropy(logits, []int{-1, -1, -1}, nil)
	if l2 != 0 {
		t.Errorf("all-masked loss = %v", l2)
	}
	for _, v := range g2.Data {
		if v != 0 {
			t.Fatal("all-masked grad nonzero")
		}
	}
}

func TestWeightedCrossEntropyClassWeights(t *testing.T) {
	logits := tensor.FromRows([][]float64{{0, 0}})
	lossUnit, _ := WeightedCrossEntropy(logits, []int{1}, []float64{1, 1})
	lossHeavy, gradHeavy := WeightedCrossEntropy(logits, []int{1}, []float64{1, 50})
	// Normalized by total weight, the mean loss per unit weight is equal...
	if math.Abs(lossUnit-lossHeavy) > 1e-12 {
		t.Errorf("normalized weighted loss should match: %v vs %v", lossUnit, lossHeavy)
	}
	// ...but with mixed rows the heavy class dominates the gradient.
	logits2 := tensor.FromRows([][]float64{{0, 0}, {0, 0}})
	_, g := WeightedCrossEntropy(logits2, []int{0, 1}, []float64{1, 9})
	// Row 1 (weight 9) must have 9× the gradient magnitude of row 0.
	r0 := math.Abs(g.At(0, 0))
	r1 := math.Abs(g.At(1, 0))
	if math.Abs(r1/r0-9) > 1e-9 {
		t.Errorf("gradient ratio = %v, want 9", r1/r0)
	}
	_ = gradHeavy
}

func TestSGDMomentumConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² with SGD+momentum.
	p := NewParam("w", 3)
	target := []float64{1, -2, 3}
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	for step := 0; step < 500; step++ {
		p.ZeroGrad()
		for i := range p.Data {
			p.Grad[i] = 2 * (p.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i, want := range target {
		if math.Abs(p.Data[i]-want) > 1e-5 {
			t.Errorf("w[%d] = %v, want %v", i, p.Data[i], want)
		}
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", 1)
	p.Data[0] = 1
	opt := &SGD{LR: 0.1, WeightDecay: 0.5}
	opt.Step([]*Param{p}) // grad 0, decay pulls toward 0
	if p.Data[0] >= 1 {
		t.Errorf("weight decay did not shrink: %v", p.Data[0])
	}
}

func TestMLPTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP("m", []int{2, 16, 2}, rng)
	// XOR-ish synthetic task.
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	labels := []int{0, 1, 1, 0}
	opt := &SGD{LR: 0.3, Momentum: 0.9}
	var first, last float64
	for epoch := 0; epoch < 400; epoch++ {
		ZeroGrads(m.Params())
		logits := m.Forward(x)
		loss, dlogits := WeightedCrossEntropy(logits, labels, nil)
		if epoch == 0 {
			first = loss
		}
		last = loss
		m.Backward(dlogits)
		opt.Step(m.Params())
	}
	if last >= first/4 {
		t.Errorf("training did not reduce loss: first %v last %v", first, last)
	}
	pred := m.Forward(x).ArgmaxRows()
	for i, want := range labels {
		if pred[i] != want {
			t.Errorf("XOR sample %d predicted %d, want %d", i, pred[i], want)
		}
	}
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("m", []int{128, 64, 64, 128, 2}, rng)
	x := randInput(rng, 1024, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}
