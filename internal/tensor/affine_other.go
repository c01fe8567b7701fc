//go:build !amd64

package tensor

// useAVX2 is false where the assembly kernel is not built: on other
// architectures MatMul and Affine run the pure-Go loops.
const useAVX2 = false

func affineAVX2[T Float](dst, a, w *Mat[T], bias []T, relu bool) {
	panic("tensor: no AVX2 kernel in this build")
}
