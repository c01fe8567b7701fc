package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randDense64(rng *rand.Rand, r, c int) *Dense {
	d := NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// TestFromDenseRoundTrip checks conversion both ways: narrowing rounds
// once, widening is exact.
func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randDense64(rng, 7, 9)
	f := Convert[float32](d)
	for i, v := range f.Data {
		if v != float32(d.Data[i]) {
			t.Fatalf("Convert element %d: %g != float32(%g)", i, v, d.Data[i])
		}
	}
	back := f.ToDense()
	for i, v := range back.Data {
		if v != float64(f.Data[i]) {
			t.Fatalf("ToDense element %d not exact", i)
		}
	}
	g := New[float32](7, 9)
	ConvertInto(g, d)
	for i := range g.Data {
		if g.Data[i] != f.Data[i] {
			t.Fatalf("ConvertInto differs from Convert at %d", i)
		}
	}
}

// TestMatMul32MatchesFloat64 checks the float32 matmul (including the
// zero-skip fast path for post-ReLU sparse rows) against the f64 kernel
// within f32 tolerance.
func TestMatMul32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := randDense64(rng, m, k)
		// Sprinkle exact zeros (and whole zero rows) to exercise the
		// zero-skip and the first-write path.
		for i := range a.Data {
			if rng.Intn(3) == 0 {
				a.Data[i] = 0
			}
		}
		if m > 1 {
			copy(a.Row(0), make([]float64, k))
		}
		b := randDense64(rng, k, n)
		want := NewDense(m, n)
		MatMul(want, a, b)
		got := New[float32](m, n)
		// Pre-poison dst: the kernel must fully overwrite it.
		for i := range got.Data {
			got.Data[i] = float32(math.NaN())
		}
		MatMul(got, Convert[float32](a), Convert[float32](b))
		if d := MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("trial %d: float32 MatMul off by %g", trial, d)
		}
	}
}

// TestDense32Elementwise covers the small kernels used by the f32
// forward path.
func TestDense32Elementwise(t *testing.T) {
	d := New[float32](2, 3)
	d.Set(0, 0, -1)
	d.Set(1, 2, 2)
	if d.At(1, 2) != 2 {
		t.Fatal("At/Set broken")
	}
	d.AddRowVector([]float32{1, 0, 0})
	if d.At(0, 0) != 0 || d.At(1, 0) != 1 {
		t.Fatal("AddRowVector broken")
	}
	d.Set(0, 1, -5)
	d.ReLUInPlace()
	if d.At(0, 1) != 0 || d.At(1, 2) != 2 {
		t.Fatal("ReLUInPlace broken")
	}
	o := New[float32](2, 3)
	o.Set(0, 0, 4)
	d.AxpyInPlace(0.5, o)
	if d.At(0, 0) != 2 {
		t.Fatal("AxpyInPlace broken")
	}
	c := New[float32](2, 3)
	c.CopyFrom(d)
	if c.At(0, 0) != 2 || c.At(1, 2) != 2 {
		t.Fatal("CopyFrom broken")
	}
	d.Zero()
	for _, v := range d.Data {
		if v != 0 {
			t.Fatal("Zero broken")
		}
	}
}

// TestDense32ShapePanics pins the shape validation.
func TestDense32ShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	a, b := New[float32](2, 3), New[float32](3, 2)
	mustPanic("New negative", func() { New[float32](-1, 2) })
	mustPanic("MatMul shape", func() { MatMul(New[float32](2, 2), a, a) })
	mustPanic("CopyFrom shape", func() { a.CopyFrom(b) })
	mustPanic("Axpy shape", func() { a.AxpyInPlace(1, b) })
	mustPanic("AddRowVector shape", func() { a.AddRowVector([]float32{1}) })
	mustPanic("MaxAbsDiff shape", func() { MaxAbsDiff(a, NewDense(3, 2)) })
}
