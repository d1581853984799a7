//go:build !noasm

#include "textflag.h"

// func dotRows4AVX2(out *float64, q *float32, slab *float64, dim, blocks int)
//
// DotRows4 over blocks ≥ 1 blocks of a dim ≥ 1 slab. Per dimension j,
// q[j] is widened (VCVTSS2SD from the never-written X5, so no dependency
// on the previous iteration) and broadcast to all four lanes; each block
// then multiplies it by its four row values and adds the products to its
// own accumulator: two roundings per lane, no FMA, lanes summed in
// dimension order. Two blocks run side by side in Y0 and Y1 so their add
// chains overlap; an odd last block runs alone.
TEXT ·dotRows4AVX2(SB), NOSPLIT, $0-40
	MOVQ   out+0(FP), DI
	MOVQ   q+8(FP), SI
	MOVQ   slab+16(FP), BX
	MOVQ   dim+24(FP), CX
	MOVQ   blocks+32(FP), R10
	MOVQ   CX, R8
	SHLQ   $5, R8 // bytes per block: dim × 4 lanes × 8
	VXORPD X5, X5, X5

pair:
	CMPQ   R10, $2
	JLT    single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   BX, DX
	XORQ   R11, R11

pairdim:
	VCVTSS2SD    (SI)(R11*4), X5, X2
	VBROADCASTSD X2, Y2
	VMULPD       (DX), Y2, Y3
	VMULPD       (DX)(R8*1), Y2, Y4
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y1, Y1
	ADDQ         $32, DX
	INCQ         R11
	CMPQ         R11, CX
	JLT          pairdim

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (BX)(R8*2), BX
	SUBQ    $2, R10
	JMP     pair

single:
	TESTQ  R10, R10
	JEQ    done
	VXORPD Y0, Y0, Y0
	XORQ   R11, R11

singledim:
	VCVTSS2SD    (SI)(R11*4), X5, X2
	VBROADCASTSD X2, Y2
	VMULPD       (BX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	ADDQ         $32, BX
	INCQ         R11
	CMPQ         R11, CX
	JLT          singledim
	VMOVUPD      Y0, (DI)

done:
	VZEROUPPER
	RET

// STORE8 widens the eight float32 values of y (whose low half is x) to
// float64, stores them at R14 and advances R14 by CX.
#define STORE8(y, x) \
	VCVTPS2PD    x, Y8;      \
	VEXTRACTF128 $1, y, X9;  \
	VCVTPS2PD    X9, Y9;     \
	VMOVUPD      Y8, (R14);  \
	VMOVUPD      Y9, 32(R14); \
	ADDQ         CX, R14

// func dotRows8FMA(out *float64, ptrs *[8]*float32, nq int, slab *float32, dim, blocks, n int)
//
// The projection screen for eight queries over blocks ≥ 1 blocks of
// eight float32 rows. Per dimension j the block's eight row values are
// loaded once (Y8) and each query's q[j] is broadcast and fused into its
// own accumulator, Y0…Y7: eight independent FMA chains, one lane per
// row. The query pointers run from their ends with R11 from −dim to 0.
// Only the first nq accumulators are stored.
TEXT ·dotRows8FMA(SB), NOSPLIT, $0-56
	MOVQ ptrs+8(FP), DX
	MOVQ dim+32(FP), CX
	MOVQ 0(DX), AX
	LEAQ (AX)(CX*4), AX
	MOVQ 8(DX), BX
	LEAQ (BX)(CX*4), BX
	MOVQ 16(DX), SI
	LEAQ (SI)(CX*4), SI
	MOVQ 24(DX), R8
	LEAQ (R8)(CX*4), R8
	MOVQ 32(DX), R9
	LEAQ (R9)(CX*4), R9
	MOVQ 40(DX), R10
	LEAQ (R10)(CX*4), R10
	MOVQ 48(DX), R12
	LEAQ (R12)(CX*4), R12
	MOVQ 56(DX), R13
	LEAQ (R13)(CX*4), R13
	MOVQ out+0(FP), DI
	MOVQ slab+24(FP), DX
	MOVQ n+48(FP), CX
	SHLQ $3, CX // bytes per query's output

block8:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   dim+32(FP), R11
	NEGQ   R11

dim8:
	VMOVUPS      (DX), Y8
	VBROADCASTSS (AX)(R11*4), Y9
	VFMADD231PS  Y9, Y8, Y0
	VBROADCASTSS (BX)(R11*4), Y10
	VFMADD231PS  Y10, Y8, Y1
	VBROADCASTSS (SI)(R11*4), Y11
	VFMADD231PS  Y11, Y8, Y2
	VBROADCASTSS (R8)(R11*4), Y12
	VFMADD231PS  Y12, Y8, Y3
	VBROADCASTSS (R9)(R11*4), Y13
	VFMADD231PS  Y13, Y8, Y4
	VBROADCASTSS (R10)(R11*4), Y14
	VFMADD231PS  Y14, Y8, Y5
	VBROADCASTSS (R12)(R11*4), Y15
	VFMADD231PS  Y15, Y8, Y6
	VBROADCASTSS (R13)(R11*4), Y9
	VFMADD231PS  Y9, Y8, Y7
	ADDQ         $32, DX
	INCQ         R11
	JNZ          dim8

	MOVQ DI, R14
	STORE8(Y0, X0)
	CMPQ nq+16(FP), $1
	JEQ  stored8
	STORE8(Y1, X1)
	CMPQ nq+16(FP), $2
	JEQ  stored8
	STORE8(Y2, X2)
	CMPQ nq+16(FP), $3
	JEQ  stored8
	STORE8(Y3, X3)
	CMPQ nq+16(FP), $4
	JEQ  stored8
	STORE8(Y4, X4)
	CMPQ nq+16(FP), $5
	JEQ  stored8
	STORE8(Y5, X5)
	CMPQ nq+16(FP), $6
	JEQ  stored8
	STORE8(Y6, X6)
	CMPQ nq+16(FP), $7
	JEQ  stored8
	STORE8(Y7, X7)

stored8:
	ADDQ $64, DI
	DECQ blocks+40(FP)
	JNZ  block8
	VZEROUPPER
	RET
