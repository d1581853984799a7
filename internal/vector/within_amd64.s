//go:build !noasm

#include "textflag.h"

// ROWDIST leaves in X0 the squared distance between the two CX-wide
// float32 rows at SI and BX, with R12 = CX &^ 3. It is l2SqRaw lane for
// lane: Y0 holds the accumulators s0..s3, every block of 4 dimensions is
// widened to float64, subtracted, squared and added (four separate
// roundings — no FMA), the 1–3 tail dimensions go into s0 alone, and the
// result is (s0+s1)+(s2+s3): after the blocks X0 = (s0, s1) and X3 =
// (s2, s3), the tail's VADDSD touches lane 0 only, VHADDPD gives
// (s0+s1, s2+s3). Clobbers R11, X1, X2, X3; usable once per TEXT (its
// labels are function-scoped).
#define ROWDIST \
	VXORPD       Y0, Y0, Y0;          \
	XORQ         R11, R11;            \
	TESTQ        R12, R12;            \
	JEQ          rowhigh;             \
rowblock:                             \
	VCVTPS2PD    (SI)(R11*4), Y1;     \
	VCVTPS2PD    (BX)(R11*4), Y2;     \
	VSUBPD       Y2, Y1, Y1;          \
	VMULPD       Y1, Y1, Y1;          \
	VADDPD       Y1, Y0, Y0;          \
	ADDQ         $4, R11;             \
	CMPQ         R11, R12;            \
	JLT          rowblock;            \
rowhigh:                              \
	VEXTRACTF128 $1, Y0, X3;          \
	CMPQ         R11, CX;             \
	JGE          rowsum;              \
rowtail:                              \
	VCVTSS2SD    (SI)(R11*4), X1, X1; \
	VCVTSS2SD    (BX)(R11*4), X2, X2; \
	VSUBSD       X2, X1, X1;          \
	VMULSD       X1, X1, X1;          \
	VADDSD       X1, X0, X0;          \
	INCQ         R11;                 \
	CMPQ         R11, CX;             \
	JLT          rowtail;             \
rowsum:                               \
	VHADDPD      X3, X0, X0;          \
	VUNPCKHPD    X0, X0, X1;          \
	VADDSD       X1, X0, X0

// EMIT stores the id in R13 at dst[k] and advances k (AX) iff the
// distance in X0 is ≤ r2 (X4): VUCOMISD sets CF when r2 < d or either is
// NaN, and SBBQ computes k = k + 1 - CF. The store is unconditional, so
// the loop has no data-dependent branch.
#define EMIT \
	VUCOMISD X0, X4;          \
	MOVL     R13, (DI)(AX*4); \
	SBBQ     $-1, AX

#define PREFETCH 4

// func l2SqWithinIDsAVX2(dst *int32, q, flat *float32, dim, n int, ids *int32, nids int, r2 float64) int
TEXT ·l2SqWithinIDsAVX2(SB), NOSPLIT, $0-72
	MOVQ   dst+0(FP), DI
	MOVQ   q+8(FP), SI
	MOVQ   flat+16(FP), DX
	MOVQ   dim+24(FP), CX
	MOVQ   n+32(FP), R8
	MOVQ   ids+40(FP), R9
	MOVQ   nids+48(FP), R10
	VMOVSD r2+56(FP), X4
	MOVQ   CX, R12
	ANDQ   $-4, R12
	XORQ   AX, AX
	TESTQ  R10, R10
	JLE    done

idloop:
	MOVL  (R9), R13  // zero-extends: a negative id compares above any n
	CMPQ  R13, R8
	JAE   badid
	MOVQ  R13, BX
	IMULQ CX, BX
	LEAQ  (DX)(BX*4), BX
	CMPQ  R10, $PREFETCH
	JLE   noprefetch
	MOVL  (4*PREFETCH)(R9), R11
	IMULQ CX, R11
	PREFETCHT0 (DX)(R11*4)
	PREFETCHT0 64(DX)(R11*4)
noprefetch:
	ROWDIST
	EMIT
	ADDQ  $4, R9
	DECQ  R10
	JNZ   idloop

done:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

badid:
	MOVQ nids+48(FP), AX
	SUBQ R10, AX
	NOTQ AX          // -1-i
	JMP  done

// func l2SqWithinRowsAVX2(dst *int32, q, rows *float32, dim, first, nrows int, r2 float64) int
TEXT ·l2SqWithinRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ   dst+0(FP), DI
	MOVQ   q+8(FP), SI
	MOVQ   rows+16(FP), BX
	MOVQ   dim+24(FP), CX
	MOVQ   first+32(FP), R13
	MOVQ   nrows+40(FP), R10
	VMOVSD r2+48(FP), X4
	MOVQ   CX, R12
	ANDQ   $-4, R12
	LEAQ   (CX*4), R8 // row stride in bytes
	XORQ   AX, AX
	TESTQ  R10, R10
	JLE    rowsdone

rowloop:
	ROWDIST
	EMIT
	ADDQ R8, BX
	INCQ R13
	DECQ R10
	JNZ  rowloop

rowsdone:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
