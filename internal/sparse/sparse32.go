package sparse

import "repro/internal/tensor"

// Float32 names for the f32 inference mode (see DESIGN.md decision 10):
// one-line instantiations of the generic kernels in sparse.go. The
// adjacency values stay stored in float64 — the CSR is shared with the
// exact float64 path — and are narrowed on the fly; the dense operand and
// destination are float32, which is where the memory-traffic win lives.

// MulDense32 computes dst = m·x in float32; dst must be NumRows×x.Cols.
func (m *CSR) MulDense32(dst, x *tensor.Dense32) { Mul(m, dst, x, 1) }

// MulDense32Parallel is Mul in float32.
func (m *CSR) MulDense32Parallel(dst, x *tensor.Dense32, workers int) { Mul(m, dst, x, workers) }

// ToDense32 materializes the matrix in float32; for tests.
func (m *CSR) ToDense32() *tensor.Dense32 { return tensor.FromDense(m.ToDense()) }
