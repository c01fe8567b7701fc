package opi

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// poolCase is one design and the serial results every concurrent caller
// must reproduce bit for bit.
type poolCase struct {
	n         *netlist.Netlist
	g         *core.Graph
	positives map[int32]bool
	x         *tensor.Dense // an SpMM operand
	logits    *tensor.Dense // Model.Forward
	probs32   []float64     // float32 Model.Predict
	incr      []float64     // the incremental session after editCase
	spmm      *tensor.Dense // P·x
	sel       []int32       // selectByImpact
}

// editCase replays a fixed sequence of attribute refreshes on g through
// an incremental session and returns the session's final probabilities.
func editCase(m *core.Model, g *core.Graph, seed int64) []float64 {
	g = g.Clone()
	rng := rand.New(rand.NewSource(seed))
	st := m.ForwardFull(g)
	for step := 0; step < 4; step++ {
		var dirty []int32
		for k := 0; k < 6; k++ {
			v := int32(rng.Intn(g.N))
			g.SetAttributes(v, float64(rng.Intn(30)), float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), float64(rng.Intn(50)))
			dirty = append(dirty, v)
		}
		m.UpdateIncremental(st, g, dirty)
	}
	return append([]float64(nil), st.Probs...)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentCallersShareThePool runs whole-graph forwards in both
// precisions, incremental updates, parallel SpMM and cone ranking from
// several goroutines at once, so they all contend for the shared par
// helpers and pooled runs, and checks each result is == to the same call
// made alone. Run it under -race.
func TestConcurrentCallersShareThePool(t *testing.T) {
	m := core.MustNewModel(core.DefaultConfig())
	cfg := FlowConfig{}.withDefaults()
	var cases []*poolCase
	for i := int64(0); i < 3; i++ {
		n, _, g := buildBench(t, 70+i, 300+100*int(i))
		c := &poolCase{n: n, g: g, positives: map[int32]bool{}}
		rng := rand.New(rand.NewSource(i))
		for v := 0; v < g.N; v++ {
			if rng.Intn(8) == 0 {
				c.positives[int32(v)] = true
			}
		}
		c.x = tensor.NewDense(g.N, 16)
		for k := range c.x.Data {
			c.x.Data[k] = rng.NormFloat64()
		}
		c.logits = m.Forward(g)
		m32 := m.Clone()
		m32.SetFloat32Inference(true)
		c.probs32 = m32.Predict(g)
		c.incr = editCase(m, g, 100+i)
		c.spmm = tensor.NewDense(g.N, 16)
		g.Pred().MulDense(c.spmm, c.x)
		c.sel = selectByImpact(n, c.positives, cfg)
		cases = append(cases, c)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m32 := m.Clone()
			m32.SetFloat32Inference(true)
			for round := 0; round < 2; round++ {
				c := cases[(w+round)%len(cases)]
				switch (w + round) % 4 {
				case 0:
					if got := m.Forward(c.g); tensor.MaxAbsDiff(got, c.logits) != 0 {
						t.Errorf("worker %d: concurrent Forward differs from the serial one", w)
					}
					if got := m32.Predict(c.g); !sameFloats(got, c.probs32) {
						t.Errorf("worker %d: concurrent float32 Predict differs from the serial one", w)
					}
				case 1:
					if got := editCase(m, c.g, 100+int64((w+round)%len(cases))); !sameFloats(got, c.incr) {
						t.Errorf("worker %d: concurrent incremental updates differ from the serial ones", w)
					}
				case 2:
					got := tensor.NewDense(c.g.N, 16)
					sparse.Mul(c.g.Pred(), got, c.x, 0)
					if tensor.MaxAbsDiff(got, c.spmm) != 0 {
						t.Errorf("worker %d: concurrent sparse.Mul differs from the serial product", w)
					}
				case 3:
					got := selectByImpact(c.n, c.positives, cfg)
					if len(got) != len(c.sel) {
						t.Errorf("worker %d: concurrent ranking selected %d nodes, serial %d", w, len(got), len(c.sel))
						continue
					}
					for k := range got {
						if got[k] != c.sel[k] {
							t.Errorf("worker %d: concurrent ranking differs from the serial one at %d", w, k)
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
