// Package tensor provides the dense linear algebra needed by the neural
// network layers: row-major matrices with a zero-skipping matrix
// multiplication and its fused bias-and-ReLU form (affine.go: an AVX2
// assembly row kernel on amd64, bit-identical to the pure-Go loops that
// run elsewhere), the transposed variants used by backpropagation, and
// elementwise kernels.
//
// The matrix type is generic over its element precision. Dense
// (float64) carries training, gradient checking and exact inference;
// Dense32 (float32) carries the narrow float32 scoring call. Both are
// instantiations of the one Mat type, so every kernel below has a
// single body; the compiler stencils a separate copy per precision
// (float32 and float64 have different GC shapes), so the inner loops
// carry no generic dictionary cost.
//
// It replaces the GPU BLAS the paper relies on. Everything here is exact
// and deterministic, which keeps gradient checking and property-based
// tests straightforward.
package tensor

import (
	"fmt"
	"math"
)

// Float is the element constraint of Mat: the two precisions the
// repository computes in.
type Float interface {
	float32 | float64
}

// Mat is a row-major matrix. Data has length Rows*Cols and element
// (i,j) lives at Data[i*Cols+j].
type Mat[T Float] struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// Data is the row-major backing array of length Rows*Cols.
	Data []T
}

// Dense is the float64 matrix used by training and exact inference.
type Dense = Mat[float64]

// Dense32 is the float32 matrix of the narrow scoring call (DESIGN.md
// decision 10).
type Dense32 = Mat[float32]

// New allocates a zeroed Rows×Cols matrix.
func New[T Float](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// NewDense allocates a zeroed Rows×Cols float64 matrix.
func NewDense(rows, cols int) *Dense { return New[float64](rows, cols) }

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	d := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != d.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d: %d != %d", i, len(r), d.Cols))
		}
		copy(d.Row(i), r)
	}
	return d
}

// Convert returns src rounded (or widened) element by element into a
// new matrix of precision D.
func Convert[D, S Float](src *Mat[S]) *Mat[D] {
	d := New[D](src.Rows, src.Cols)
	ConvertInto(d, src)
	return d
}

// ConvertInto writes src, element by element converted to precision D,
// into dst; shapes must match.
func ConvertInto[D, S Float](dst *Mat[D], src *Mat[S]) {
	mustSameShape("Convert", dst.Rows, dst.Cols, src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = D(v)
	}
}

func mustSameShape(op string, r1, c1, r2, c2 int) {
	if r1 != r2 || c1 != c2 {
		panic("tensor: " + op + " shape mismatch")
	}
}

// At returns element (i,j).
func (d *Mat[T]) At(i, j int) T { return d.Data[i*d.Cols+j] }

// Set assigns element (i,j).
func (d *Mat[T]) Set(i, j int, v T) { d.Data[i*d.Cols+j] = v }

// Row returns a mutable view of row i.
func (d *Mat[T]) Row(i int) []T { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// RowRange returns a (hi-lo)×Cols matrix sharing d's storage for rows
// [lo, hi).
func (d *Mat[T]) RowRange(lo, hi int) *Mat[T] {
	return &Mat[T]{Rows: hi - lo, Cols: d.Cols, Data: d.Data[lo*d.Cols : hi*d.Cols]}
}

// Clone returns a deep copy.
func (d *Mat[T]) Clone() *Mat[T] {
	c := New[T](d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// ToDense widens (or copies) the matrix into a new float64 matrix; the
// widening from float32 is exact.
func (d *Mat[T]) ToDense() *Dense { return Convert[float64](d) }

// Zero sets every element to 0.
func (d *Mat[T]) Zero() {
	for i := range d.Data {
		d.Data[i] = 0
	}
}

// CopyFrom copies src into d; shapes must match.
func (d *Mat[T]) CopyFrom(src *Mat[T]) {
	mustSameShape("CopyFrom", d.Rows, d.Cols, src.Rows, src.Cols)
	copy(d.Data, src.Data)
}

// AddInPlace adds o elementwise into d.
func (d *Mat[T]) AddInPlace(o *Mat[T]) {
	mustSameShape("AddInPlace", d.Rows, d.Cols, o.Rows, o.Cols)
	for i, v := range o.Data {
		d.Data[i] += v
	}
}

// AxpyInPlace adds alpha*o elementwise into d.
func (d *Mat[T]) AxpyInPlace(alpha T, o *Mat[T]) {
	mustSameShape("AxpyInPlace", d.Rows, d.Cols, o.Rows, o.Cols)
	for i, v := range o.Data {
		d.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (d *Mat[T]) Scale(alpha T) {
	for i := range d.Data {
		d.Data[i] *= alpha
	}
}

// Dot returns the Frobenius inner product <d, o>.
func (d *Mat[T]) Dot(o *Mat[T]) T {
	mustSameShape("Dot", d.Rows, d.Cols, o.Rows, o.Cols)
	var s T
	for i, v := range d.Data {
		s += v * o.Data[i]
	}
	return s
}

// MatMulTransB computes dst = a·bᵀ. dst must be a.Rows×b.Rows.
func MatMulTransB(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTransB shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			crow[j] = s
		}
	}
}

// MatMulTransA computes dst = aᵀ·b. dst must be a.Cols×b.Cols.
func MatMulTransA(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulTransA shape mismatch")
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			crow := dst.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// AddRowVector adds vector v to every row of d (bias addition).
func (d *Mat[T]) AddRowVector(v []T) {
	if len(v) != d.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ReLUInPlace applies max(x,0) elementwise.
func (d *Mat[T]) ReLUInPlace() {
	for i, v := range d.Data {
		if v < 0 {
			d.Data[i] = 0
		}
	}
}

// ReLUBackwardInPlace zeroes grad entries where the forward activation
// out was zero (the ReLU gradient mask).
func ReLUBackwardInPlace(grad, out *Dense) {
	if grad.Rows != out.Rows || grad.Cols != out.Cols {
		panic("tensor: ReLUBackward shape mismatch")
	}
	for i, v := range out.Data {
		if v <= 0 {
			grad.Data[i] = 0
		}
	}
}

// SoftmaxRowsInPlace turns every row into a softmax distribution using
// the max-subtraction trick for numerical stability.
func (d *Mat[T]) SoftmaxRowsInPlace() {
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		max := T(math.Inf(-1))
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum T
		for j, v := range row {
			e := T(math.Exp(float64(v - max)))
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// ArgmaxRows returns the index of the maximum element in every row.
func (d *Mat[T]) ArgmaxRows() []int {
	out := make([]int, d.Rows)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		best, bi := T(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two equally shaped matrices, evaluated in float64 (so a float32 result
// can be compared against a float64 reference); used heavily in tests.
func MaxAbsDiff[A, B Float](a *Mat[A], b *Mat[B]) float64 {
	mustSameShape("MaxAbsDiff", a.Rows, a.Cols, b.Rows, b.Cols)
	var m float64
	for i, v := range a.Data {
		d := math.Abs(float64(v) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}
