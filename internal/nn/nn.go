// Package nn provides the neural network building blocks used by the GCN
// and the MLP baseline: fully connected layers, activation and loss
// kernels with exact analytic gradients, and an SGD optimizer with
// momentum. It replaces the PyTorch autograd stack the paper trains with;
// every gradient here is hand-derived and verified against numerical
// differentiation in the tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is a flat trainable parameter tensor together with its gradient
// accumulator and momentum state. Layers expose their parameters as
// []*Param so a single optimizer can drive heterogeneous models (weight
// matrices, bias vectors and the GCN's scalar aggregation weights alike).
type Param struct {
	Name string
	Data []float64
	Grad []float64
	vel  []float64
}

// NewParam allocates a named parameter of the given size.
func NewParam(name string, size int) *Param {
	return &Param{Name: name, Data: make([]float64, size), Grad: make([]float64, size)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// SGD is stochastic gradient descent with classical momentum, optional
// L2 weight decay, and optional global gradient-norm clipping. Clipping
// matters for the GCN: the paper's unnormalized weighted-sum aggregation
// (Equation 1) lets activations scale with node degree, and early
// training steps on hub-heavy netlists can otherwise diverge.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	ClipNorm    float64 // > 0 enables global-norm gradient clipping
}

// Step applies one update to every parameter using its accumulated
// gradient, then leaves the gradient untouched (call ZeroGrad before the
// next accumulation).
func (s *SGD) Step(params []*Param) {
	if s.ClipNorm > 0 {
		var sq float64
		for _, p := range params {
			for _, g := range p.Grad {
				sq += g * g
			}
		}
		if norm := math.Sqrt(sq); norm > s.ClipNorm {
			scale := s.ClipNorm / norm
			for _, p := range params {
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	for _, p := range params {
		if p.vel == nil && s.Momentum != 0 {
			p.vel = make([]float64, len(p.Data))
		}
		for i := range p.Data {
			g := p.Grad[i] + s.WeightDecay*p.Data[i]
			if s.Momentum != 0 {
				p.vel[i] = s.Momentum*p.vel[i] + g
				g = p.vel[i]
			}
			p.Data[i] -= s.LR * g
		}
	}
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// Linear is a fully connected layer Y = X·W + b with In inputs and Out
// outputs.
type Linear struct {
	In, Out int
	W       *Param // In×Out, row-major
	B       *Param // Out
}

// NewLinear constructs a layer with Xavier-initialized weights and zero
// bias, drawing from rng.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out,
		W: NewParam(name+".W", in*out),
		B: NewParam(name+".B", out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W.Data {
		l.W.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

func (l *Linear) wMat() *tensor.Dense {
	return &tensor.Dense{Rows: l.In, Cols: l.Out, Data: l.W.Data}
}

func (l *Linear) wGradMat() *tensor.Dense {
	return &tensor.Dense{Rows: l.In, Cols: l.Out, Data: l.W.Grad}
}

// Forward computes Y = X·W + b into a new matrix.
func (l *Linear) Forward(x *tensor.Dense) *tensor.Dense {
	return l.ForwardInto(nil, x)
}

// ForwardInto computes Y = X·W + b into dst (allocated when nil or of the
// wrong shape) and returns it; lets inference paths reuse buffers.
func (l *Linear) ForwardInto(dst, x *tensor.Dense) *tensor.Dense {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear forward got %d features, want %d", x.Cols, l.In))
	}
	if dst == nil || dst.Rows != x.Rows || dst.Cols != l.Out {
		dst = tensor.NewDense(x.Rows, l.Out)
	}
	tensor.MatMul(dst, x, l.wMat())
	dst.AddRowVector(l.B.Data)
	return dst
}

// Backward accumulates dW and dB from the layer input x and the upstream
// gradient dY, and returns dX.
func (l *Linear) Backward(x, dy *tensor.Dense) *tensor.Dense {
	// dW += xᵀ·dY
	dw := tensor.NewDense(l.In, l.Out)
	tensor.MatMulTransA(dw, x, dy)
	wg := l.wGradMat()
	wg.AddInPlace(dw)
	// dB += column sums of dY
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j, v := range row {
			l.B.Grad[j] += v
		}
	}
	// dX = dY·Wᵀ
	dx := tensor.NewDense(x.Rows, l.In)
	tensor.MatMulTransB(dx, dy, l.wMat())
	return dx
}

// WeightedCrossEntropy computes the mean class-weighted softmax
// cross-entropy loss over logits (N×C) with integer labels, returning the
// loss and the gradient with respect to the logits. Class weights are the
// paper's mechanism for biasing each multi-stage GCN toward the positive
// class; pass nil for uniform weights. Rows with label < 0 are ignored
// (masked out), which supports training on subsets of a graph's nodes.
func WeightedCrossEntropy(logits *tensor.Dense, labels []int, classWeights []float64) (float64, *tensor.Dense) {
	if len(labels) != logits.Rows {
		panic("nn: label count mismatch")
	}
	probs := logits.Clone()
	probs.SoftmaxRowsInPlace()
	grad := tensor.NewDense(logits.Rows, logits.Cols)
	var loss, totalWeight float64
	for i, lab := range labels {
		if lab < 0 {
			continue
		}
		w := 1.0
		if classWeights != nil {
			w = classWeights[lab]
		}
		p := probs.At(i, lab)
		if p < 1e-300 {
			p = 1e-300
		}
		loss += -w * math.Log(p)
		totalWeight += w
		prow := probs.Row(i)
		grow := grad.Row(i)
		for j, pj := range prow {
			grow[j] = w * pj
		}
		grow[lab] -= w
	}
	if totalWeight == 0 {
		return 0, grad
	}
	inv := 1 / totalWeight
	loss *= inv
	grad.Scale(inv)
	return loss, grad
}

// Softmax returns the row-wise softmax of logits as a new matrix.
func Softmax(logits *tensor.Dense) *tensor.Dense {
	p := logits.Clone()
	p.SoftmaxRowsInPlace()
	return p
}

// MLP is a plain multi-layer perceptron with ReLU between layers, used
// both as the GCN's FC classifier head and as the standalone MLP baseline
// of Table 2.
type MLP struct {
	Layers []*Linear
	// acts[i] is the (post-ReLU) output of layer i from the last Forward;
	// retained for Backward.
	acts  []*tensor.Dense
	input *tensor.Dense
}

// NewMLP builds an MLP with the given layer dimensions, e.g.
// dims = [128, 64, 64, 128, 2] yields the paper's four FC layers.
func NewMLP(name string, dims []int, rng *rand.Rand) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("%s.fc%d", name, i), dims[i], dims[i+1], rng))
	}
	return m
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs the network; ReLU is applied after every layer except the
// last (which produces logits).
func (m *MLP) Forward(x *tensor.Dense) *tensor.Dense {
	m.input = x
	m.acts = m.acts[:0]
	cur := x
	for i, l := range m.Layers {
		cur = l.Forward(cur)
		if i+1 < len(m.Layers) {
			cur.ReLUInPlace()
		}
		m.acts = append(m.acts, cur)
	}
	return cur
}

// Backward propagates dLogits through the network, accumulating parameter
// gradients, and returns the gradient with respect to the input.
func (m *MLP) Backward(dlogits *tensor.Dense) *tensor.Dense {
	grad := dlogits
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if i+1 < len(m.Layers) {
			// Undo the ReLU applied to this layer's output.
			tensor.ReLUBackwardInPlace(grad, m.acts[i])
		}
		in := m.input
		if i > 0 {
			in = m.acts[i-1]
		}
		grad = m.Layers[i].Backward(in, grad)
	}
	return grad
}
