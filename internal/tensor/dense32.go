package tensor

// Dense32 is the float32 matrix of the narrow inference mode (DESIGN.md
// decision 10). Training and gradient checking stay in float64 (Dense);
// trained weights are narrowed once via FromDense. Halving the element
// size halves the memory traffic of the SpMM and encoder matmuls that
// dominate a forward pass. The names below are the float32
// instantiations of the generic kernels, kept so callers read naturally.
type Dense32 = Mat[float32]

// NewDense32 allocates a zeroed Rows×Cols float32 matrix.
func NewDense32(rows, cols int) *Dense32 { return New[float32](rows, cols) }

// FromDense narrows a float64 matrix to float32, rounding every element
// once.
func FromDense(d *Dense) *Dense32 { return Convert[float32](d) }

// MatMul32 computes dst = a·b in float32 (see MatMul).
func MatMul32(dst, a, b *Dense32) { MatMul(dst, a, b) }

// MaxAbsDiff32 compares a float32 matrix against a float64 reference.
func MaxAbsDiff32(a *Dense32, b *Dense) float64 { return MaxAbsDiff(a, b) }
