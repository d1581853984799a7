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
