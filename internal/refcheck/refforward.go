package refcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/nn"
	"repro/internal/scoap"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// This file is the dense oracle for the model's inference forward, in
// the A·(X·W)+b form of the paper's Equation 3: each layer multiplies
// the previous embeddings by W_d with the triple-loop MatMulRef first,
// then applies A = I + wpr·P + wsu·S to the product by scattering the
// COO adjacency (no CSR, no row kernel, no tiles), then adds the bias
// and applies ReLU; the FC head is MatMulRef plus bias, with ReLU on
// every layer but the last. The production pass computes (A·E)·W row
// tile by row tile, so the two agree only up to rounding, and
// MatTolerance bounds the difference.

// RefForward returns the oracle's per-layer embeddings E_0 … E_D and its
// logits for m over g.
func RefForward(m *core.Model, g *core.Graph) ([]*tensor.Dense, *tensor.Dense) {
	P := g.Pred().ToCOO()
	S := &sparse.COO{NumRows: P.NumCols, NumCols: P.NumRows, Rows: P.Cols, Cols: P.Rows, Vals: P.Vals}
	wpr, wsu := m.Wpr.Data[0], m.Wsu.Data[0]
	cur := g.X.Clone()
	embeds := []*tensor.Dense{cur}
	for _, l := range m.Enc {
		h := MatMulRef(cur, weightsOf(l))
		ph := tensor.NewDense(h.Rows, h.Cols)
		P.MulDense(ph, h)
		sh := tensor.NewDense(h.Rows, h.Cols)
		S.MulDense(sh, h)
		for i := range h.Data {
			h.Data[i] += wpr*ph.Data[i] + wsu*sh.Data[i]
		}
		cur = biasReLU(h, l, true)
		embeds = append(embeds, cur)
	}
	for i, l := range m.FC.Layers {
		cur = biasReLU(MatMulRef(cur, weightsOf(l)), l, i < len(m.FC.Layers)-1)
	}
	return embeds, cur
}

func weightsOf(l *nn.Linear) *tensor.Dense {
	return &tensor.Dense{Rows: l.In, Cols: l.Out, Data: l.W.Data}
}

// biasReLU adds l's bias to every row of h, then clamps negatives to 0
// when relu is set; it returns h.
func biasReLU(h *tensor.Dense, l *nn.Linear, relu bool) *tensor.Dense {
	for r := 0; r < h.Rows; r++ {
		row := h.Row(r)
		for j := range row {
			row[j] += l.B.Data[j]
			if relu && row[j] < 0 {
				row[j] = 0
			}
		}
	}
	return h
}

// CheckForwardOracle compares the embeddings E_0 … E_{D-1} that the
// session of m.ForwardFull(g) keeps, and the logits of m.Forward(g),
// which cover E_D through the head, against RefForward and returns an
// error naming the first that differs by more than MatTolerance.
func CheckForwardOracle(m *core.Model, g *core.Graph) error {
	st := m.ForwardFull(g)
	embeds, logits := RefForward(m, g)
	for d, e := range st.Embeddings() {
		if diff := MaxRelDiff(e, embeds[d]); diff > MatTolerance {
			return fmt.Errorf("E_%d diverges from the dense oracle by %g", d, diff)
		}
	}
	if diff := MaxRelDiff(m.Forward(g), logits); diff > MatTolerance {
		return fmt.Errorf("logits diverge from the dense oracle by %g", diff)
	}
	return nil
}

// CheckNetlistForward runs CheckForwardOracle for the default
// architecture, seeded by seed, over the GCN graph of n.
func CheckNetlistForward(n *netlist.Netlist, seed int64) error {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return CheckForwardOracle(core.MustNewModel(cfg), core.FromNetlist(n, scoap.Compute(n)))
}
