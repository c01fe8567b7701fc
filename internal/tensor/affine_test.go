package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether x and y hold the same bits, any NaN matching
// any NaN.
func sameBits[T Float](x, y T) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	// Widening to float64 is exact, so it keeps distinct bits distinct.
	return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
}

// firstDiff returns the first element at which got and want differ in
// their bits, or "" when every element matches.
func firstDiff[T Float](got, want *Mat[T]) string {
	for i, v := range got.Data {
		if !sameBits(v, want.Data[i]) {
			return fmt.Sprintf("(%d,%d): got %v (%#x), want %v (%#x)", i/got.Cols, i%got.Cols,
				v, math.Float64bits(float64(v)), want.Data[i], math.Float64bits(float64(want.Data[i])))
		}
	}
	return ""
}

// special draws from the values the kernel must reproduce bit for bit:
// about 40% zeros of either sign, NaN, ±Inf, subnormals, and ordinary
// values of either sign.
func special[T Float](rng *rand.Rand) T {
	var tiny T = math.SmallestNonzeroFloat32
	if _, ok := any(tiny).(float64); ok {
		tiny = T(math.SmallestNonzeroFloat64)
	}
	switch r := rng.Intn(100); {
	case r < 35:
		return 0
	case r < 40:
		return T(math.Copysign(0, -1))
	case r < 42:
		return T(math.NaN())
	case r < 44:
		return T(math.Inf(1 - 2*rng.Intn(2)))
	case r < 48:
		return tiny * T(1+rng.Intn(100)) * T(1-2*rng.Intn(2))
	default:
		return T(rng.NormFloat64())
	}
}

func specialMat[T Float](rng *rand.Rand, rows, cols int) *Mat[T] {
	m := New[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = special[T](rng)
	}
	// Some rows are all zero, of either sign.
	for i := 0; i < rows; i++ {
		if rng.Intn(8) == 0 {
			row := m.Row(i)
			for j := range row {
				row[j] = T(math.Copysign(0, float64(1-2*rng.Intn(2))))
			}
		}
	}
	return m
}

// checkKernel runs the AVX2 kernel and the pure-Go loops on one problem,
// as MatMul (no bias, no ReLU) and as Affine with and without ReLU, and
// fails on the first element whose bits differ.
func checkKernel[T Float](t *testing.T, name string, a, w *Mat[T], bias []T) {
	t.Helper()
	for _, c := range []struct {
		bias []T
		relu bool
	}{{nil, false}, {bias, false}, {bias, true}, {nil, true}} {
		got, want := New[T](a.Rows, w.Cols), New[T](a.Rows, w.Cols)
		for i := range got.Data {
			got.Data[i] = T(math.NaN()) // the kernel must overwrite every element
		}
		affineAVX2(got, a, w, c.bias, c.relu)
		affineGo(want, a, w, c.bias, c.relu)
		if d := firstDiff(got, want); d != "" {
			t.Fatalf("%s (bias %t, relu %t): %s", name, c.bias != nil, c.relu, d)
		}
	}
}

// checkShapes covers rows 1–130, widths 1–160 (every vector block and
// Go tail of both precisions) and K from 1 to past two term chunks,
// including rows with exactly termChunk nonzero terms, whose last kernel
// call has no term left and only resumes, adds the bias and stores.
func checkShapes[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for cols := 1; cols <= 160; cols++ {
		rows, k := 1+rng.Intn(130), 1+rng.Intn(40)
		a, w := specialMat[T](rng, rows, k), specialMat[T](rng, k, cols)
		checkKernel(t, fmt.Sprintf("%d×%d·%d×%d", rows, k, k, cols), a, w, specialMat[T](rng, 1, cols).Data)
	}
	for _, k := range []int{termChunk - 1, termChunk, termChunk + 1, 2*termChunk + 37} {
		for _, cols := range []int{1, 7, 36, 64, 100, 129} {
			rows := 1 + rng.Intn(12)
			a, w := specialMat[T](rng, rows, k), specialMat[T](rng, k, cols)
			// Row 0 has every term nonzero; the last row exactly termChunk
			// nonzero terms, the last of them at a random k.
			for j := range a.Row(0) {
				a.Row(0)[j] = T(rng.NormFloat64())
			}
			if k >= termChunk {
				last := a.Row(rows - 1)
				clear(last)
				for _, j := range rng.Perm(k)[:termChunk] {
					last[j] = T(rng.NormFloat64())
				}
			}
			checkKernel(t, fmt.Sprintf("%d×%d·%d×%d", rows, k, k, cols), a, w, specialMat[T](rng, 1, cols).Data)
		}
	}
}

// TestKernelMatchesPureGo pins the assembly kernel to the pure-Go loops
// bit for bit, in both precisions.
func TestKernelMatchesPureGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernel to compare: not amd64, or the CPU or OS lacks AVX2")
	}
	t.Run("float64", checkShapes[float64])
	t.Run("float32", checkShapes[float32])
}

func TestAffineShapePanics(t *testing.T) {
	a, w := NewDense(2, 3), NewDense(3, 4)
	for name, fn := range map[string]func(){
		"dst":  func() { Affine(NewDense(2, 3), a, w, nil, false) },
		"bias": func() { Affine(NewDense(2, 4), a, w, make([]float64, 3), false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzAffine feeds raw element bits to MatMul and Affine and compares
// them with the pure-Go steps, bit for bit. shape packs the precision,
// the bias and the ReLU; rows, k and cols size the problem (k reaches
// past a term chunk); data supplies a, then w, then the bias, element by
// element, starting over when it runs out, so a short input still fills
// a large problem (all zeros when it is shorter than one element).
func FuzzAffine(f *testing.F) {
	nan, inf, negz := math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Copysign(0, -1))
	seed := func(words ...uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	f.Add(uint8(0), uint8(1), uint8(1), uint8(1), seed(math.Float64bits(-2), math.Float64bits(3), negz))
	f.Add(uint8(6), uint8(3), uint8(4), uint8(37), seed(nan, 0, inf, negz, 1, 5, 0x1, math.Float64bits(-1e-310)))
	f.Add(uint8(7), uint8(2), uint8(130), uint8(65), seed(math.Float64bits(0.5), nan, negz, 0x3ff0000000000000))
	f.Add(uint8(3), uint8(1), uint8(255), uint8(9), []byte{0x80, 0x7f, 0xc0, 0xff, 0x01, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, shape, rows, k, cols uint8, data []byte) {
		r, kk, c := 1+int(rows)%16, 1+2*int(k), 1+int(cols)%160
		bias, relu := shape&2 != 0, shape&4 != 0
		pos := 0
		// word returns the next n bytes of data, cyclically.
		word := func(n int) []byte {
			if pos+n > len(data) {
				pos = 0
			}
			pos += n
			return data[pos-n : pos]
		}
		if shape&1 == 0 {
			fuzzAffine(t, r, kk, c, bias, relu, func() float64 {
				if len(data) < 8 {
					return 0
				}
				return math.Float64frombits(binary.LittleEndian.Uint64(word(8)))
			})
		} else {
			fuzzAffine(t, r, kk, c, bias, relu, func() float32 {
				if len(data) < 4 {
					return 0
				}
				return math.Float32frombits(binary.LittleEndian.Uint32(word(4)))
			})
		}
	})
}

func fuzzAffine[T Float](t *testing.T, rows, k, cols int, withBias, relu bool, next func() T) {
	a, w := New[T](rows, k), New[T](k, cols)
	for _, m := range []*Mat[T]{a, w} {
		for i := range m.Data {
			m.Data[i] = next()
		}
	}
	var bias []T
	if withBias {
		bias = make([]T, cols)
		for j := range bias {
			bias[j] = next()
		}
	}
	want := New[T](rows, cols)
	matMulGo(want, a, w)
	got := New[T](rows, cols)
	MatMul(got, a, w)
	if d := firstDiff(got, want); d != "" {
		t.Fatalf("MatMul %d×%d·%d×%d: %s", rows, k, k, cols, d)
	}
	if bias != nil {
		want.AddRowVector(bias)
	}
	if relu {
		want.ReLUInPlace()
	}
	Affine(got, a, w, bias, relu)
	if d := firstDiff(got, want); d != "" {
		t.Fatalf("Affine %d×%d·%d×%d (bias %t, relu %t): %s", rows, k, k, cols, withBias, relu, d)
	}
}
