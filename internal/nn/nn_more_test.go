package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestForwardIntoAllocatesOnNilAndBadShape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewLinear("l", 3, 2, rng)
	x := randInput(rng, 4, 3)
	a := l.ForwardInto(nil, x)
	bad := tensor.NewDense(1, 1)
	b := l.ForwardInto(bad, x)
	if b == bad {
		t.Error("wrong-shape dst must be replaced")
	}
	if diff := tensor.MaxAbsDiff(a, b); diff != 0 {
		t.Errorf("results differ by %g", diff)
	}
	// Correct-shape dst is reused in place.
	good := tensor.NewDense(4, 2)
	c := l.ForwardInto(good, x)
	if c != good {
		t.Error("correct-shape dst must be reused")
	}
}

func TestClipNormScalesGradient(t *testing.T) {
	p := NewParam("w", 2)
	p.Grad[0], p.Grad[1] = 30, 40 // norm 50
	opt := &SGD{LR: 1, ClipNorm: 5}
	opt.Step([]*Param{p})
	// Clipped gradient is (3, 4); step moves weights by -LR*that.
	if math.Abs(p.Data[0]+3) > 1e-12 || math.Abs(p.Data[1]+4) > 1e-12 {
		t.Errorf("clipped step = %v, want [-3 -4]", p.Data)
	}
}

func TestClipNormNoEffectBelowThreshold(t *testing.T) {
	p := NewParam("w", 1)
	p.Grad[0] = 2
	opt := &SGD{LR: 1, ClipNorm: 5}
	opt.Step([]*Param{p})
	if p.Data[0] != -2 {
		t.Errorf("small gradient should be untouched: %v", p.Data[0])
	}
}

func TestWeightedCrossEntropyGradientSumsToZeroPerRow(t *testing.T) {
	// Softmax CE gradient rows sum to zero (probability simplex).
	rng := rand.New(rand.NewSource(24))
	logits := randInput(rng, 6, 4)
	labels := []int{0, 1, 2, 3, 0, 1}
	_, grad := WeightedCrossEntropy(logits, labels, []float64{1, 2, 3, 4})
	for i := 0; i < grad.Rows; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Errorf("row %d gradient sums to %g", i, s)
		}
	}
}

func TestMLPSingleLayerIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := NewMLP("m", []int{3, 2}, rng)
	// No hidden layer ⇒ no ReLU ⇒ negative outputs possible.
	x := tensor.FromRows([][]float64{{-10, -10, -10}})
	out := m.Forward(x)
	neg := false
	for _, v := range out.Data {
		if v < 0 {
			neg = true
		}
	}
	_ = neg // either sign is fine; the point is it must not panic and shape is 1×2
	if out.Rows != 1 || out.Cols != 2 {
		t.Fatalf("shape %d×%d", out.Rows, out.Cols)
	}
}

func TestNewMLPTooFewDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MLP with one dim should panic")
		}
	}()
	NewMLP("m", []int{3}, rand.New(rand.NewSource(1)))
}

func TestLoadParamsUnknownNameFails(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := NewMLP("a", []int{2, 2}, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewMLP("b", []int{2, 2}, rng) // different param names
	if err := LoadParams(&buf, other.Params()); err == nil {
		t.Error("loading params with foreign names should fail")
	}
}
