package tensor

import "fmt"

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from
// both operands. It is Affine without the bias and the ReLU.
func MatMul[T Float](dst, a, b *Mat[T]) {
	mustAffineShape("MatMul", dst, a, b, nil)
	if useAVX2 {
		affineAVX2(dst, a, b, nil, false)
		return
	}
	matMulGo(dst, a, b)
}

// Affine computes dst = a·w + bias, then ReLU when relu is set; a nil bias
// adds nothing. dst must be a.Rows×w.Cols and distinct from a and w. The
// result is bit-identical to MatMul, AddRowVector and ReLUInPlace in
// turn, in one pass over dst: on amd64 with AVX2 the bias and the ReLU
// are the row kernel's epilogue (DESIGN.md decision 12).
func Affine[T Float](dst, a, w *Mat[T], bias []T, relu bool) {
	mustAffineShape("Affine", dst, a, w, bias)
	if useAVX2 {
		affineAVX2(dst, a, w, bias, relu)
		return
	}
	affineGo(dst, a, w, bias, relu)
}

// Kernel names the GEMM kernel MatMul and Affine run in this process:
// "avx2" for the assembly row kernel, "go" for the pure-Go loops (other
// architectures, or a CPU or OS without AVX2).
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// termChunk is the length of the stack list affineAVX2 gathers a
// row's nonzero terms into. A row with more of them runs through the
// kernel a chunk at a time, each chunk resuming from the sums the
// previous one stored, which are exact, so any K reaches the kernel with
// the same bits.
const termChunk = 256

func mustAffineShape[T Float](op string, dst, a, w *Mat[T], bias []T) {
	if a.Cols != w.Rows || dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%d×%d)·(%d×%d)->(%d×%d)",
			op, a.Rows, a.Cols, w.Rows, w.Cols, dst.Rows, dst.Cols))
	}
	if bias != nil && len(bias) != w.Cols {
		panic(fmt.Sprintf("tensor: %s bias length %d, want %d", op, len(bias), w.Cols))
	}
}

// affineGo is Affine in pure Go, the fallback and the reference the
// assembly kernel is tested against.
func affineGo[T Float](dst, a, w *Mat[T], bias []T, relu bool) {
	matMulGo(dst, a, w)
	if bias != nil {
		dst.AddRowVector(bias)
	}
	if relu {
		dst.ReLUInPlace()
	}
}

// matMulGo is MatMul in pure Go: the cache-friendly ikj ordering, in
// which zero entries of a are skipped (post-ReLU activations are sparse)
// and each dst element is the first nonzero term's product plus every
// later term, one multiply and one add each, in k order. A row of a
// with no nonzero entry gives a zero row.
func matMulGo[T Float](dst, a, b *Mat[T]) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		first := true
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			if first {
				for j, bv := range brow {
					crow[j] = av * bv
				}
				first = false
				continue
			}
			// Four columns per iteration: each crow[j] still gets exactly
			// one multiply-add per k, in k order, so the result is the
			// same as the one-column loop; the unroll only makes the loop's
			// speed independent of where the linker places it (a
			// one-column loop straddling a 64-byte line ran up to 45%
			// slower in some builds).
			j := 0
			for ; j+4 <= len(brow); j += 4 {
				c, bv := crow[j:j+4:j+4], brow[j:j+4:j+4]
				c[0] += av * bv[0]
				c[1] += av * bv[1]
				c[2] += av * bv[2]
				c[3] += av * bv[3]
			}
			for ; j < len(brow); j++ {
				crow[j] += av * brow[j]
			}
		}
		if first {
			for j := range crow {
				crow[j] = 0
			}
		}
	}
}
