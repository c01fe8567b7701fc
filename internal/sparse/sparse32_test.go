package sparse

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestNNZBands checks the band boundaries: monotone, row-aligned
// coverage of [0, rows], and nonzero counts within a row of each other
// when rows are uniform.
func TestNNZBands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(200)
		rowPtr := make([]int32, rows+1)
		for r := 0; r < rows; r++ {
			rowPtr[r+1] = rowPtr[r] + int32(rng.Intn(9)) // skewed, some empty
		}
		n := 1 + rng.Intn(16)
		bands := nnzBands(rowPtr, n)
		if bands[0] != 0 || bands[len(bands)-1] != int32(rows) {
			t.Fatalf("bands %v do not cover [0,%d]", bands, rows)
		}
		if len(bands)-1 > n {
			t.Fatalf("got %d bands, want <= %d", len(bands)-1, n)
		}
		for i := 1; i < len(bands); i++ {
			if bands[i] <= bands[i-1] {
				t.Fatalf("bands not strictly increasing: %v", bands)
			}
		}
	}
	// Degenerate: all-zero matrix still covers every row (zeroing dst
	// rows is part of the kernel contract).
	bands := nnzBands([]int32{0, 0, 0, 0}, 4)
	if bands[0] != 0 || bands[len(bands)-1] != 3 {
		t.Fatalf("zero-nnz bands %v must still cover all rows", bands)
	}
}

// TestMulDenseParallelBandsMatchSerial drives the band scheduler with
// enough rows to bypass the serial fallback and checks bit-identity
// with the serial kernel on a skewed matrix.
func TestMulDenseParallelBandsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	coo := NewCOO(500, 300)
	for r := 0; r < 500; r++ {
		// Skew: row density grows quadratically with the row index.
		for k := 0; k < 1+(r*r)/20000; k++ {
			coo.Append(int32(r), int32(rng.Intn(300)), rng.NormFloat64())
		}
	}
	csr := coo.ToCSR()
	x := randDense(rng, 300, 8)
	want := tensor.NewDense(500, 8)
	csr.MulDense(want, x)
	for _, workers := range []int{2, 3, 8} {
		got := tensor.NewDense(500, 8)
		// Raise GOMAXPROCS so the clamp doesn't force the serial path on
		// single-CPU hosts; band decomposition itself is what's under test.
		old := runtime.GOMAXPROCS(workers)
		csr.MulDenseParallel(got, x, workers)
		runtime.GOMAXPROCS(old)
		if d := tensor.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("workers=%d: parallel differs from serial by %g", workers, d)
		}
	}
}

// TestSumDuplicatesScratchReuse checks the epoch-stamp dedup across
// repeated conversions of matrices with different shapes through the
// shared pool, against the dense reference.
func TestSumDuplicatesScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		r, c := 1+rng.Intn(40), 1+rng.Intn(40)
		m := randCOO(rng, r, c, 1+rng.Intn(80), true)
		csr := m.ToCSR()
		if d := tensor.MaxAbsDiff(csr.ToDense(), denseOf(m)); d > 1e-12 {
			t.Fatalf("trial %d: dedup wrong by %g", trial, d)
		}
	}
}

// TestTransposeRoundTrip checks Transpose against the dense transpose
// and that transposing twice gives the original matrix back.
func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randCOO(rng, 25, 40, 120, true).ToCSR()
	mt := m.Transpose()
	if mt.NumRows != 40 || mt.NumCols != 25 {
		t.Fatalf("transpose shape %d×%d, want 40×25", mt.NumRows, mt.NumCols)
	}
	d, dt := m.ToDense(), mt.ToDense()
	for i := 0; i < 25; i++ {
		for j := 0; j < 40; j++ {
			if d.At(i, j) != dt.At(j, i) {
				t.Fatalf("Transpose[%d][%d] = %g, want %g", j, i, dt.At(j, i), d.At(i, j))
			}
		}
	}
	if d := tensor.MaxAbsDiff(mt.Transpose().ToDense(), m.ToDense()); d != 0 {
		t.Fatalf("double transpose differs from original by %g", d)
	}
}

// TestAppendToRowMatchesConversion grows a CSR and its transpose the way
// an observation-point insertion grows the graph's adjacency, one new
// node and one entry at a time, and compares both array for array with
// converting the grown COO again.
func TestAppendToRowMatchesConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		coo := randCOO(rng, n, n, rng.Intn(3*n), true)
		csr := coo.ToCSR()
		tr := csr.Transpose()
		for step := 0; step < 10; step++ {
			// A new last row holding one entry, as P gains [target], and
			// the new node at the end of row target of the transpose.
			target := int32(rng.Intn(n))
			n++
			coo.Grow(n, n)
			coo.Append(int32(n-1), target, 1)
			csr.Grow(n, n)
			csr.AppendToRow(int32(n-1), target, 1)
			tr.Grow(n, n)
			tr.AppendToRow(target, int32(n-1), 1)
			want := coo.ToCSR()
			if !equalCSR(csr, want) {
				t.Fatalf("trial %d step %d: in-place %v, converted %v", trial, step, csr, want)
			}
			if wantT := want.Transpose(); !equalCSR(tr, wantT) {
				t.Fatalf("trial %d step %d: in-place transpose %v, converted %v", trial, step, tr, wantT)
			}
		}
	}
	m := randCOO(rng, 4, 4, 0, false).ToCSR()
	m.AppendToRow(1, 2, 1)
	for _, bad := range [][2]int32{{1, 2}, {4, 0}, {0, 4}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendToRow(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			m.AppendToRow(bad[0], bad[1], 1)
		}()
	}
}

// equalCSR reports whether a and b hold the same shape and the same
// RowPtr, ColIdx and Vals, element for element.
func equalCSR(a, b *CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols ||
		len(a.RowPtr) != len(b.RowPtr) || len(a.ColIdx) != len(b.ColIdx) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

// TestGrowNegativePanics pins the new Grow validation and that Grow
// still never shrinks.
func TestGrowNegativePanics(t *testing.T) {
	m := NewCOO(4, 4)
	for _, bad := range [][2]int{{-1, 5}, {5, -1}, {-2, -2}} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("Grow(%d,%d) should panic", bad[0], bad[1])
				} else if !strings.Contains(r.(string), "negative") {
					t.Fatalf("Grow panic message %q should mention negative", r)
				}
			}()
			m.Grow(bad[0], bad[1])
		}()
	}
	m.Grow(2, 2) // smaller-than-current: legal no-op
	if m.NumRows != 4 || m.NumCols != 4 {
		t.Fatalf("Grow shrank to %d×%d", m.NumRows, m.NumCols)
	}
	m.Grow(6, 5)
	if m.NumRows != 6 || m.NumCols != 5 {
		t.Fatalf("Grow(6,5) gave %d×%d", m.NumRows, m.NumCols)
	}
}

// TestAppendPanicMessage pins the out-of-bounds Append diagnostics,
// including the Grow-never-shrinks hint.
func TestAppendPanicMessage(t *testing.T) {
	m := NewCOO(3, 3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Append outside bounds should panic")
		}
		msg := r.(string)
		for _, want := range []string{"Append(5,1)", "3×3", "Grow never shrinks"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic message %q missing %q", msg, want)
			}
		}
	}()
	m.Append(5, 1, 1.0)
}

// TestMulDense32MatchesFloat64 checks the f32 kernels (serial and
// parallel) against the float64 path within float32 tolerance, and
// their bit-identity with each other.
func TestMulDense32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		r, c, k := 4+rng.Intn(120), 4+rng.Intn(80), 2+rng.Intn(12)
		m := randCOO(rng, r, c, 2*r, true).ToCSR()
		x := randDense(rng, c, k)
		x32 := tensor.Convert[float32](x)

		want := tensor.NewDense(r, k)
		m.MulDense(want, x)

		got := tensor.New[float32](r, k)
		Mul(m, got, x32, 1)
		if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("trial %d: f32 SpMM off by %g", trial, d)
		}

		gotPar := tensor.New[float32](r, k)
		old := runtime.GOMAXPROCS(4)
		Mul(m, gotPar, x32, 4)
		runtime.GOMAXPROCS(old)
		for i, v := range gotPar.Data {
			if v != got.Data[i] {
				t.Fatalf("trial %d: parallel f32 not bit-identical at %d: %g vs %g",
					trial, i, v, got.Data[i])
			}
		}
	}
}

// TestToCSRAllocatesOnlyItsResult asserts that a conversion, after a
// warm-up that sized the pooled dedup scratch, allocates only the CSR it
// returns: the struct and its three arrays.
func TestToCSRAllocatesOnlyItsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := randCOO(rng, 200, 200, 2000, true)
	m.ToCSR() // warm: sizes the dedup scratch
	avg := testing.AllocsPerRun(50, func() {
		m.ToCSR()
	})
	if avg > 4 {
		t.Fatalf("ToCSR allocates %.2f objects/op, want the result's 4", avg)
	}
}
