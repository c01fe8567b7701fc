package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestGrowNeverShrinks(t *testing.T) {
	m := NewCOO(5, 5)
	m.Grow(3, 3)
	if m.NumRows != 5 || m.NumCols != 5 {
		t.Errorf("Grow shrank the matrix: %d×%d", m.NumRows, m.NumCols)
	}
	m.Grow(7, 6)
	if m.NumRows != 7 || m.NumCols != 6 {
		t.Errorf("Grow failed: %d×%d", m.NumRows, m.NumCols)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewCOO(3, 3)
	m.Append(0, 1, 2)
	c := m.Clone()
	c.Append(1, 2, 3)
	c.Vals[0] = 99
	if m.NNZ() != 1 || m.Vals[0] != 2 {
		t.Error("clone mutation affected source")
	}
}

func TestTransposeEmpty(t *testing.T) {
	m := NewCOO(4, 2).ToCSR()
	tr := m.Transpose()
	if tr.NumRows != 2 || tr.NumCols != 4 || tr.NNZ() != 0 {
		t.Errorf("transpose of empty = %d×%d nnz %d", tr.NumRows, tr.NumCols, tr.NNZ())
	}
}

func TestCSRRowsAreCompleteAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randCOO(rng, 30, 30, 100, true)
	csr := m.ToCSR()
	if csr.RowPtr[0] != 0 || int(csr.RowPtr[csr.NumRows]) != csr.NNZ() {
		t.Fatalf("row pointer endpoints wrong: %d..%d nnz %d",
			csr.RowPtr[0], csr.RowPtr[csr.NumRows], csr.NNZ())
	}
	for r := 0; r < csr.NumRows; r++ {
		if csr.RowPtr[r] > csr.RowPtr[r+1] {
			t.Fatalf("row %d pointers decrease", r)
		}
		seen := map[int32]bool{}
		for p := csr.RowPtr[r]; p < csr.RowPtr[r+1]; p++ {
			c := csr.ColIdx[p]
			if seen[c] {
				t.Fatalf("row %d has duplicate column %d after merge", r, c)
			}
			seen[c] = true
		}
	}
}

func TestParallelOnTinyMatrixFallsBackToSerial(t *testing.T) {
	m := NewCOO(3, 3)
	m.Append(0, 0, 1)
	csr := m.ToCSR()
	x := tensor.FromRows([][]float64{{1}, {2}, {3}})
	dst := tensor.NewDense(3, 1)
	csr.MulDenseParallel(dst, x, 8) // workers ≫ rows
	if dst.At(0, 0) != 1 || dst.At(1, 0) != 0 {
		t.Errorf("tiny parallel product wrong: %v", dst.Data)
	}
}
