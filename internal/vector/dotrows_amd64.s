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

// func dotRows4x4AVX2(out *float64, q0, q1, q2, q3 *float32, slab *float64, dim, pairs, n int)
//
// dotRows4AVX2 for four queries over the first 2·pairs blocks of a slab,
// query p's products going to out[p·n:]. Per dimension j, two blocks'
// row values are loaded once and each query's q[j] is broadcast and
// widened (VBROADCASTSS, VCVTPS2PD: exact, as VCVTSS2SD is) and
// multiplied into both: eight accumulators, one per (query, block),
// Y0…Y7, so eight add chains overlap where dotRows4AVX2 has two. The
// lanes' operations and their order are dotRows4AVX2's.
TEXT ·dotRows4x4AVX2(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ q0+8(FP), SI
	MOVQ q1+16(FP), R12
	MOVQ q2+24(FP), R13
	MOVQ q3+32(FP), AX
	MOVQ slab+40(FP), BX
	MOVQ dim+48(FP), CX
	MOVQ pairs+56(FP), R10
	MOVQ n+64(FP), R9
	SHLQ $3, R9 // bytes per query's output
	MOVQ CX, R8
	SHLQ $5, R8 // bytes per block: dim × 4 lanes × 8

quadpair:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   BX, DX
	XORQ   R11, R11

quadpairdim:
	VMOVUPD      (DX), Y8
	VMOVUPD      (DX)(R8*1), Y9
	VBROADCASTSS (SI)(R11*4), X10
	VCVTPS2PD    X10, Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSS (R12)(R11*4), X13
	VCVTPS2PD    X13, Y13
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSS (R13)(R11*4), X10
	VCVTPS2PD    X10, Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSS (AX)(R11*4), X13
	VCVTPS2PD    X13, Y13
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         $32, DX
	INCQ         R11
	CMPQ         R11, CX
	JLT          quadpairdim

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R9*1)
	VMOVUPD Y3, 32(DI)(R9*1)
	LEAQ    (DI)(R9*2), DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VMOVUPD Y6, (DX)(R9*1)
	VMOVUPD Y7, 32(DX)(R9*1)
	ADDQ    $64, DI
	LEAQ    (BX)(R8*2), BX
	DECQ    R10
	JNZ     quadpair

	VZEROUPPER
	RET
