#include "textflag.h"

// The AVX2 row kernel behind Affine and MatMul (affine_amd64.go). For one
// output row c it walks the vector columns in blocks of 8, 4, 2 and 1 YMM
// registers (32, 16, 8, 4 float64 or 64, 32, 16, 8 float32 columns). Each
// block's accumulators stay in registers for the whole term list and take
// exactly the scalar loop's roundings in its order: the first term is a
// product (or, under MODE_LOAD, the sums the previous chunk stored), each
// later term one multiply and then one add with the accumulator as the
// first source, never a fused multiply-add. After the last term the bias
// is added the same way, and ReLU is VMAXPx with zero as the first source,
// which returns the accumulator unless zero is greater: -0 and NaN stay,
// exactly as `if v < 0 { v = 0 }` leaves them.
//
// Registers, loaded by each entry point:
//
//	DI   c: the output row, at the current block's first column
//	SI   b: W, at the current block's first column
//	DX   the bytes of vector columns left
//	R8   offs: the byte offset of each term's row of W
//	R9   vals: each term's value
//	R10  n: the number of terms
//	BX   bias, at the current block's first column
//	R11  mode
//
// R12 counts terms, R13 points at the term's row of W, Y14 holds the
// term's value in every lane, Y13 a product and Y15 zero. MULV, ADDV,
// MAXV, BCASTV and ESIZE name each precision's instructions and element
// size; they are defined before each entry point and bound where BLOCK
// is used.

// The mode bits; the Go side defines the same values.
#define MODE_LOAD 1
#define MODE_BIAS 2
#define MODE_RELU 4

// ACCn applies op to each accumulator of an n-register block, passing the
// byte offset of its columns within the block.
#define ACC8(op) op(0, Y0); op(32, Y1); op(64, Y2); op(96, Y3); op(128, Y4); op(160, Y5); op(192, Y6); op(224, Y7)
#define ACC4(op) op(0, Y0); op(32, Y1); op(64, Y2); op(96, Y3)
#define ACC2(op) op(0, Y0); op(32, Y1)
#define ACC1(op) op(0, Y0)

#define LOADC(o, y) VMOVUPS o(DI), y
#define FIRST(o, y) MULV o(R13), Y14, y
#define MULADD(o, y) MULV o(R13), Y14, Y13; ADDV Y13, y, y
#define BIAS(o, y) ADDV o(BX), y, y
#define RELU(o, y) MAXV y, Y15, y
#define STORE(o, y) VMOVUPS y, o(DI)

// TERM0 and TERM(i) load the first or the i-th term: its value into every
// lane of Y14, the address of its row of W, at the block, into R13.
#define TERM0 BCASTV (R9), Y14; MOVQ (R8), R13; ADDQ SI, R13
#define TERM(i) BCASTV (R9)(i*ESIZE), Y14; MOVQ (R8)(i*8), R13; ADDQ SI, R13

// BLOCK runs blocks of the ACC registers, BYTES bytes of columns each,
// while at least BYTES bytes of vector columns are left; the other
// arguments name its labels.
#define BLOCK(ACC, BYTES, top, first, loop, next, relu, store, done) \
top:                                \
	CMPQ  DX, $BYTES                \
	JLT   done                      \
	TESTQ $MODE_LOAD, R11           \
	JZ    first                     \
	ACC(LOADC)                      \
	XORQ  R12, R12                  \
	JMP   next                      \
first:                              \
	TERM0                           \
	ACC(FIRST)                      \
	MOVQ  $1, R12                   \
	JMP   next                      \
	PCALIGN $64                     \
loop:                               \
	TERM(R12)                       \
	ACC(MULADD)                     \
	INCQ  R12                       \
next:                               \
	CMPQ  R12, R10                  \
	JLT   loop                      \
	TESTQ $MODE_BIAS, R11           \
	JZ    relu                      \
	ACC(BIAS)                       \
relu:                               \
	TESTQ $MODE_RELU, R11           \
	JZ    store                     \
	ACC(RELU)                       \
store:                              \
	ACC(STORE)                      \
	ADDQ  $BYTES, DI                \
	ADDQ  $BYTES, SI                \
	ADDQ  $BYTES, BX                \
	SUBQ  $BYTES, DX                \
	JMP   top                       \
done:

// ROW is the body of both entry points, once they have loaded the
// registers.
#define ROW \
	VXORPS Y15, Y15, Y15                                               \
	BLOCK(ACC8, 256, top8, first8, loop8, next8, relu8, store8, done8) \
	BLOCK(ACC4, 128, top4, first4, loop4, next4, relu4, store4, done4) \
	BLOCK(ACC2, 64, top2, first2, loop2, next2, relu2, store2, done2)  \
	BLOCK(ACC1, 32, top1, first1, loop1, next1, relu1, store1, done1)  \
	VZEROUPPER                                                         \
	RET

#define MULV VMULPD
#define ADDV VADDPD
#define MAXV VMAXPD
#define BCASTV VBROADCASTSD
#define ESIZE 8

// func affineRow64(c, b *float64, width int, offs *uintptr, vals *float64, n int, bias *float64, mode int)
TEXT ·affineRow64(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ width+16(FP), DX
	MOVQ offs+24(FP), R8
	MOVQ vals+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ bias+48(FP), BX
	MOVQ mode+56(FP), R11
	ROW

#undef MULV
#undef ADDV
#undef MAXV
#undef BCASTV
#undef ESIZE
#define MULV VMULPS
#define ADDV VADDPS
#define MAXV VMAXPS
#define BCASTV VBROADCASTSS
#define ESIZE 4

// func affineRow32(c, b *float32, width int, offs *uintptr, vals *float32, n int, bias *float32, mode int)
TEXT ·affineRow32(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ width+16(FP), DX
	MOVQ offs+24(FP), R8
	MOVQ vals+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ bias+48(FP), BX
	MOVQ mode+56(FP), R11
	ROW

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
