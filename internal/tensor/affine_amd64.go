package tensor

import "unsafe"

// useAVX2 selects the assembly row kernel: the CPU has AVX2 and the OS
// saves the YMM registers across context switches.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xgetbv0()&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() (eax uint32)

// The row kernel's mode bits (affine_amd64.s defines the same values).
const (
	modeLoad = 1 << iota // start from the row's stored partial sums, not the first term
	modeBias             // add the bias after the last term
	modeReLU             // then clamp below at zero
)

// affineRow64 and affineRow32 run the terms of one output row c over the
// first width bytes of its columns (a multiple of 32): term t adds
// vals[t] times the row of W at byte offset offs[t] from b.
//
//go:noescape
func affineRow64(c, b *float64, width int, offs *uintptr, vals *float64, n int, bias *float64, mode int)

//go:noescape
func affineRow32(c, b *float32, width int, offs *uintptr, vals *float32, n int, bias *float32, mode int)

// affineAVX2 is Affine on the assembly row kernel. Each row's nonzero
// entries of a are listed once, in k order, and every column block runs
// over that list, so the zero skip and the order of the terms are
// matMulGo's. The columns past the last full vector run in Go over the
// same list.
func affineAVX2[T Float](dst, a, w *Mat[T], bias []T, relu bool) {
	if w.Cols == 0 {
		return
	}
	var offs [termChunk]uintptr
	var vals [termChunk]T
	size := unsafe.Sizeof(vals[0])
	vec := w.Cols &^ (32/int(size) - 1)
	final := 0
	if bias != nil {
		final |= modeBias
	}
	if relu {
		final |= modeReLU
	}
	stride := uintptr(w.Cols) * size
	for i := 0; i < a.Rows; i++ {
		crow, arow := dst.Row(i), a.Row(i)
		mode, off := 0, uintptr(0)
		// termChunk entries of a give at most termChunk terms. A longer
		// row runs its earlier chunks without the epilogue.
		for len(arow) > termChunk {
			if n := gather(offs[:], vals[:], arow[:termChunk], off, stride); n > 0 {
				affineRow(crow, w, vec, offs[:n], vals[:n], nil, mode)
				mode = modeLoad
			}
			arow, off = arow[termChunk:], off+termChunk*stride
		}
		n := gather(offs[:], vals[:], arow, off, stride)
		if n == 0 && mode == 0 {
			// No nonzero term: the row is zero before the epilogue.
			clear(crow)
			mode = modeLoad
		}
		affineRow(crow, w, vec, offs[:n], vals[:n], bias, mode|final)
	}
}

// gather lists the nonzero entries of seg in order, their values and the
// byte offsets of their rows of W (off for seg[0], then every stride),
// and returns how many there are. Every entry is written and only the
// count tells them apart, so there is no branch to mispredict on the
// random zeros of post-ReLU rows. len(seg) <= termChunk, so the index
// mask never changes n; it only spares the bounds checks. gather stays out
// of line because inlined into affineAVX2 its loop spilled its counters
// to the stack and ran about 10% slower.
//
//go:noinline
func gather[T Float](offs []uintptr, vals, seg []T, off, stride uintptr) int {
	offs, vals = offs[:termChunk], vals[:termChunk]
	n := 0
	for _, av := range seg {
		offs[n&(termChunk-1)], vals[n&(termChunk-1)] = off, av
		n += nonzero(av)
		off += stride
	}
	return n
}

// nonzero is 1 when v != 0 (NaN included) and 0 for ±0, without a branch:
// on post-ReLU rows the zeros fall at random and a branch mispredicts.
func nonzero[T Float](v T) int {
	if unsafe.Sizeof(v) == 8 {
		b := *(*uint64)(unsafe.Pointer(&v)) << 1
		return int((b | -b) >> 63)
	}
	b := uint64(*(*uint32)(unsafe.Pointer(&v))) << 33
	return int((b | -b) >> 63)
}

// affineRow runs one chunk of a row's terms: the kernel over the first
// vec columns, Go over the rest.
func affineRow[T Float](crow []T, w *Mat[T], vec int, offs []uintptr, vals, bias []T, mode int) {
	var zero T
	size := unsafe.Sizeof(zero)
	if vec > 0 {
		width := vec * int(size)
		c, b, v, bp := unsafe.Pointer(&crow[0]), unsafe.Pointer(unsafe.SliceData(w.Data)), unsafe.Pointer(unsafe.SliceData(vals)), unsafe.Pointer(unsafe.SliceData(bias))
		if size == 8 {
			affineRow64((*float64)(c), (*float64)(b), width, unsafe.SliceData(offs), (*float64)(v), len(offs), (*float64)(bp), mode)
		} else {
			affineRow32((*float32)(c), (*float32)(b), width, unsafe.SliceData(offs), (*float32)(v), len(offs), (*float32)(bp), mode)
		}
	}
	for j := vec; j < len(crow); j++ {
		t, s := 0, crow[j]
		if mode&modeLoad == 0 {
			t, s = 1, vals[0]*w.Data[int(offs[0]/size)+j]
		}
		for ; t < len(vals); t++ {
			s += vals[t] * w.Data[int(offs[t]/size)+j]
		}
		if mode&modeBias != 0 {
			s += bias[j]
		}
		if mode&modeReLU != 0 && s < 0 {
			s = 0
		}
		crow[j] = s
	}
}
