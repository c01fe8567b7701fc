package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// randCOO builds a random COO with optional duplicate entries.
func randCOO(rng *rand.Rand, r, c, nnz int, dups bool) *COO {
	m := NewCOO(r, c)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(r)), int32(rng.Intn(c)), rng.NormFloat64())
	}
	if dups && nnz > 0 {
		for i := 0; i < nnz/3; i++ {
			j := rng.Intn(nnz)
			m.Append(m.Rows[j], m.Cols[j], rng.NormFloat64())
		}
	}
	return m
}

// denseOf materializes a COO, summing duplicates.
func denseOf(m *COO) *tensor.Dense {
	d := tensor.NewDense(m.NumRows, m.NumCols)
	for i, v := range m.Vals {
		r, c := int(m.Rows[i]), int(m.Cols[i])
		d.Set(r, c, d.At(r, c)+v)
	}
	return d
}

func randDense(rng *rand.Rand, r, c int) *tensor.Dense {
	d := tensor.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func TestCOOMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r, c, k := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(6)
		m := randCOO(rng, r, c, 1+rng.Intn(40), true)
		x := randDense(rng, c, k)
		got := tensor.NewDense(r, k)
		m.MulDense(got, x)
		want := tensor.NewDense(r, k)
		tensor.MatMul(want, denseOf(m), x)
		if diff := tensor.MaxAbsDiff(got, want); diff > 1e-12 {
			t.Fatalf("trial %d: COO mul differs by %g", trial, diff)
		}
	}
}

func TestCSRMulMatchesCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		r, c, k := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(5)
		m := randCOO(rng, r, c, 1+rng.Intn(60), true)
		x := randDense(rng, c, k)
		a := tensor.NewDense(r, k)
		m.MulDense(a, x)
		csr := m.ToCSR()
		b := tensor.NewDense(r, k)
		csr.MulDense(b, x)
		if diff := tensor.MaxAbsDiff(a, b); diff > 1e-12 {
			t.Fatalf("trial %d: CSR differs from COO by %g", trial, diff)
		}
	}
}

func TestCSRDuplicateSummation(t *testing.T) {
	m := NewCOO(2, 2)
	m.Append(0, 1, 2)
	m.Append(0, 1, 3)
	m.Append(1, 0, -1)
	csr := m.ToCSR()
	if csr.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after duplicate merge", csr.NNZ())
	}
	d := csr.ToDense()
	if d.At(0, 1) != 5 || d.At(1, 0) != -1 || d.At(0, 0) != 0 {
		t.Errorf("dense = %v", d.Data)
	}
}

func TestCSRParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randCOO(rng, 500, 400, 3000, true).ToCSR()
	x := randDense(rng, 400, 8)
	a := tensor.NewDense(500, 8)
	b := tensor.NewDense(500, 8)
	m.MulDense(a, x)
	for _, workers := range []int{1, 2, 3, 7, 16} {
		b.Zero()
		m.MulDenseParallel(b, x, workers)
		if diff := tensor.MaxAbsDiff(a, b); diff > 1e-12 {
			t.Fatalf("workers=%d differs by %g", workers, diff)
		}
	}
}

func TestCSRTransposeAndTransMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		r, c, k := 2+rng.Intn(10), 2+rng.Intn(10), 1+rng.Intn(4)
		m := randCOO(rng, r, c, 1+rng.Intn(30), false).ToCSR()
		x := randDense(rng, r, k)

		// mᵀ·x via explicit Transpose vs the dense reference.
		a := tensor.NewDense(c, k)
		tensor.MatMulTransA(a, m.ToDense(), x)
		b := tensor.NewDense(c, k)
		m.Transpose().MulDense(b, x)
		if diff := tensor.MaxAbsDiff(a, b); diff > 1e-12 {
			t.Fatalf("trans mul differs by %g", diff)
		}
		// (mᵀ)ᵀ = m.
		back := m.Transpose().Transpose().ToDense()
		if diff := tensor.MaxAbsDiff(back, m.ToDense()); diff != 0 {
			t.Fatalf("double transpose differs by %g", diff)
		}
	}
}

func TestQuickLinearity(t *testing.T) {
	// m·(x+y) == m·x + m·y for random sparse m.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, k := 2+rng.Intn(8), 2+rng.Intn(8), 1+rng.Intn(3)
		m := randCOO(rng, r, c, 1+rng.Intn(20), true).ToCSR()
		x, y := randDense(rng, c, k), randDense(rng, c, k)
		xy := x.Clone()
		xy.AddInPlace(y)
		sum := tensor.NewDense(r, k)
		m.MulDense(sum, xy)
		mx, my := tensor.NewDense(r, k), tensor.NewDense(r, k)
		m.MulDense(mx, x)
		m.MulDense(my, y)
		mx.AddInPlace(my)
		return tensor.MaxAbsDiff(sum, mx) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGrowAndIncrementalAppend(t *testing.T) {
	// Simulates the paper's OP insertion: grow the matrix by one node and
	// append the three tuples (wpr,p,v), (wsu,v,p), (1,p,p).
	m := NewCOO(3, 3)
	m.Append(0, 0, 1)
	m.Append(1, 1, 1)
	m.Append(2, 2, 1)
	m.Append(1, 0, 0.5) // edge 0→1, pred weight
	m.Grow(4, 4)
	const wpr, wsu = 0.5, 0.25
	m.Append(3, 1, wpr) // new node 3 observes node 1
	m.Append(1, 3, wsu)
	m.Append(3, 3, 1)
	csr := m.ToCSR()
	d := csr.ToDense()
	if d.At(3, 1) != wpr || d.At(1, 3) != wsu || d.At(3, 3) != 1 {
		t.Errorf("incremental entries wrong: %v", d.Data)
	}
}

func TestAppendOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range append should panic")
		}
	}()
	NewCOO(2, 2).Append(2, 0, 1)
}

func TestEmptyMatrix(t *testing.T) {
	m := NewCOO(3, 3)
	csr := m.ToCSR()
	x := randDense(rand.New(rand.NewSource(1)), 3, 2)
	out := tensor.NewDense(3, 2)
	csr.MulDense(out, x)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty matrix product must be zero")
		}
	}
}

func BenchmarkCSRMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randCOO(rng, 50000, 50000, 150000, false).ToCSR()
	x := randDense(rng, 50000, 32)
	dst := tensor.NewDense(50000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDense(dst, x)
	}
}

func BenchmarkCOOMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randCOO(rng, 50000, 50000, 150000, false)
	x := randDense(rng, 50000, 32)
	dst := tensor.NewDense(50000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDense(dst, x)
	}
}

func BenchmarkCSRMulDenseParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randCOO(rng, 50000, 50000, 150000, false).ToCSR()
	x := randDense(rng, 50000, 32)
	dst := tensor.NewDense(50000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDenseParallel(dst, x, 0)
	}
}
