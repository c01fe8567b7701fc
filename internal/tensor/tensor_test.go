package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	d := NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// naiveMatMul is the O(n³) reference implementation used to validate the
// optimized kernels.
func naiveMatMul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func transpose(a *Dense) *Dense {
	t := NewDense(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			t.Set(j, i, a.At(i, j))
		}
	}
	return t
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a, b := randDense(rng, m, k), randDense(rng, k, n)
		got := NewDense(m, n)
		MatMul(got, a, b)
		want := naiveMatMul(a, b)
		if diff := MaxAbsDiff(got, want); diff > 1e-12 {
			t.Fatalf("trial %d: MatMul differs from naive by %g", trial, diff)
		}
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := randDense(rng, m, k), randDense(rng, n, k) // b used as bᵀ
		got := NewDense(m, n)
		MatMulTransB(got, a, b)
		want := naiveMatMul(a, transpose(b))
		if diff := MaxAbsDiff(got, want); diff > 1e-12 {
			t.Fatalf("MatMulTransB differs by %g", diff)
		}

		a2, b2 := randDense(rng, k, m), randDense(rng, k, n)
		got2 := NewDense(m, n)
		MatMulTransA(got2, a2, b2)
		want2 := naiveMatMul(transpose(a2), b2)
		if diff := MaxAbsDiff(got2, want2); diff > 1e-12 {
			t.Fatalf("MatMulTransA differs by %g", diff)
		}
	}
}

func TestQuickMatMulAssociativityWithIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randDense(rng, n, n)
		id := NewDense(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		out := NewDense(n, n)
		MatMul(out, a, id)
		return MaxAbsDiff(out, a) < 1e-14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {3, -4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	c := a.Clone()
	c.AddInPlace(b)
	if c.At(0, 1) != 18 || c.At(1, 0) != 33 {
		t.Errorf("AddInPlace wrong: %v", c.Data)
	}
	c.CopyFrom(a)
	c.AxpyInPlace(0.5, b)
	if c.At(0, 0) != 6 || c.At(1, 1) != 16 {
		t.Errorf("AxpyInPlace wrong: %v", c.Data)
	}
	c.Scale(2)
	if c.At(0, 0) != 12 {
		t.Errorf("Scale wrong: %v", c.Data)
	}
	if got := a.Dot(b); got != 10-40+90-160 {
		t.Errorf("Dot = %v", got)
	}
}

func TestReLU(t *testing.T) {
	a := FromRows([][]float64{{1, -2, 0}, {-3, 4, -0.5}})
	out := a.Clone()
	out.ReLUInPlace()
	want := FromRows([][]float64{{1, 0, 0}, {0, 4, 0}})
	if MaxAbsDiff(out, want) != 0 {
		t.Errorf("ReLU = %v", out.Data)
	}
	grad := FromRows([][]float64{{5, 6, 7}, {8, 9, 10}})
	ReLUBackwardInPlace(grad, out)
	wantG := FromRows([][]float64{{5, 0, 0}, {0, 9, 0}})
	if MaxAbsDiff(grad, wantG) != 0 {
		t.Errorf("ReLU backward = %v", grad.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromRows([][]float64{{0, 0}, {1000, 1000}, {-5, 5}})
	a.SoftmaxRowsInPlace()
	for i := 0; i < a.Rows; i++ {
		var sum float64
		for _, v := range a.Row(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("row %d has invalid prob %v", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	if a.At(0, 0) != 0.5 || a.At(1, 0) != 0.5 {
		t.Errorf("uniform rows not 0.5: %v", a.Data)
	}
	if a.At(2, 1) < 0.99 {
		t.Errorf("softmax(-5,5) = %v, want second ≈ 1", a.Row(2))
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromRows([][]float64{{1, 3, 2}, {9, -1, 0}})
	got := a.ArgmaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("ArgmaxRows = %v", got)
	}
}

func TestAddRowVector(t *testing.T) {
	a := NewDense(2, 3)
	a.AddRowVector([]float64{1, 2, 3})
	if a.At(0, 2) != 3 || a.At(1, 0) != 1 {
		t.Errorf("AddRowVector = %v", a.Data)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul with bad shapes should panic")
		}
	}()
	MatMul(NewDense(2, 2), NewDense(2, 3), NewDense(2, 3))
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 128, 128)
	c := randDense(rng, 128, 128)
	dst := NewDense(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}

func BenchmarkMatMulTall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 4096, 32)
	c := randDense(rng, 32, 64)
	dst := NewDense(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}
