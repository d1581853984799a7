//go:build !noasm

#include "textflag.h"

// tailmask<>+32-4r is the VMASKMOVPS mask of the first r lanes.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// lanemask<>+r has the low r bits set: the valid lanes of r ≤ 4 rows.
DATA lanemask<>+0(SB)/8, $0x0f0f07030100
GLOBL lanemask<>(SB), RODATA|NOPTR, $8

// ROW points reg at the end of the whole blocks of 8 of row ids[off/4]
// (R14 = their bytes), or jumps to badid when the id is outside [0, n):
// a negative id zero-extends to above any n.
#define ROW(off, reg) \
	MOVL  off(R9), reg;      \
	CMPQ  reg, R8;           \
	JAE   badid;             \
	IMULQ CX, reg;           \
	LEAQ  (DX)(reg*4), reg;  \
	ADDQ  R14, reg

#define PREFETCH(off) \
	MOVL       off(R9), R14; \
	IMULQ      CX, R14;      \
	PREFETCHT0 (DX)(R14*4)

// EMIT stores ids[off/4] at dst[k] and advances k by the low pass bit.
#define EMIT(off) \
	MOVL off(R9), R12;    \
	MOVL R12, (DI)(AX*4); \
	SHRQ $1, BX;          \
	ADCQ $0, AX

// func l2SqWithinIDsFMA(dst *int32, q, flat *float32, dim, n int, ids *int32, nids int, lo, hi float32) (k, band int)
//
// The within-radius screen (within.go): Σ(q−p)² in float32 for four
// rows at a time, one YMM accumulator per row (lane l of a tail group
// rereads row min(l, nids−1)), eight dimensions per VFMADD231PS, the
// d mod 8 tail through the tailmask, then a three-level lane sum. A sum
// ≤ lo passes, a finite sum > hi fails, and any other row is written as
// ^id and counted in band. X14 = lo, X13 = hi, X12 = +Inf; SI points
// past q's whole blocks of 8.
TEXT ·l2SqWithinIDsFMA(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         flat+16(FP), DX
	MOVQ         dim+24(FP), CX
	MOVQ         n+32(FP), R8
	MOVQ         ids+40(FP), R9
	MOVQ         nids+48(FP), R10
	MOVQ         $0, band+72(FP)
	VBROADCASTSS lo+56(FP), X14
	VBROADCASTSS hi+60(FP), X13
	MOVL         $0x7f800000, R14
	MOVQ         R14, X12
	VBROADCASTSS X12, X12
	MOVQ         CX, R14
	ANDQ         $7, R14
	SHLQ         $2, R14
	NEGQ         R14
	LEAQ         tailmask<>+32(SB), R12
	VMOVDQU      (R12)(R14*1), Y15
	MOVQ         CX, R14
	ANDQ         $-8, R14
	LEAQ         (SI)(R14*4), SI
	XORQ         AX, AX

idgroup:
	TESTQ R10, R10
	JLE   iddone
	CMPQ  R10, $8
	JLT   idrows
	PREFETCH(16)
	PREFETCH(20)
	PREFETCH(24)
	PREFETCH(28)

idrows:
	MOVQ CX, R14
	ANDQ $-8, R14
	SHLQ $2, R14
	ROW(0, BX)
	MOVQ BX, R11
	CMPQ R10, $2
	JLT  idlane2
	ROW(4, R11)

idlane2:
	MOVQ R11, R12
	CMPQ R10, $3
	JLT  idlane3
	ROW(8, R12)

idlane3:
	MOVQ R12, R13
	CMPQ R10, $4
	JLT  idsum
	ROW(12, R13)

idsum:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	NEGQ   R14
	JEQ    disttail

distloop:
	VMOVUPS     (SI)(R14*1), Y4
	VSUBPS      (BX)(R14*1), Y4, Y5
	VFMADD231PS Y5, Y5, Y0
	VSUBPS      (R11)(R14*1), Y4, Y6
	VFMADD231PS Y6, Y6, Y1
	VSUBPS      (R12)(R14*1), Y4, Y7
	VFMADD231PS Y7, Y7, Y2
	VSUBPS      (R13)(R14*1), Y4, Y8
	VFMADD231PS Y8, Y8, Y3
	ADDQ        $32, R14
	JNZ         distloop

disttail:
	TESTQ       $7, CX
	JEQ         distsum
	VMASKMOVPS  (SI), Y15, Y4
	VMASKMOVPS  (BX), Y15, Y5
	VSUBPS      Y5, Y4, Y5
	VFMADD231PS Y5, Y5, Y0
	VMASKMOVPS  (R11), Y15, Y6
	VSUBPS      Y6, Y4, Y6
	VFMADD231PS Y6, Y6, Y1
	VMASKMOVPS  (R12), Y15, Y7
	VSUBPS      Y7, Y4, Y7
	VFMADD231PS Y7, Y7, Y2
	VMASKMOVPS  (R13), Y15, Y8
	VSUBPS      Y8, Y4, Y8
	VFMADD231PS Y8, Y8, Y3

distsum:
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0 // the four rows' sums

	// BX = pass bits, R11 = band bits, both within the valid lanes R13.
	MOVQ      $4, R14
	CMPQ      R10, R14
	CMOVQLT   R10, R14
	LEAQ      lanemask<>(SB), R13
	MOVBLZX   (R13)(R14*1), R13
	VCMPPS    $0x02, X14, X0, X1 // ≤ lo
	VMOVMSKPS X1, BX
	VCMPPS    $0x0e, X13, X0, X2 // > hi
	VCMPPS    $0x01, X12, X0, X3 // < +Inf
	VANDPS    X3, X2, X2
	VMOVMSKPS X2, R11
	ANDQ      R13, BX
	ORQ       BX, R11
	NOTQ      R11
	ANDQ      R13, R11
	JNE       idslow
	CMPQ      R10, $4
	JLT       idslow
	EMIT(0) // all four decided: store every id, count the passes
	EMIT(4)
	EMIT(8)
	EMIT(12)
	JMP       idnext

idslow:
	XORQ R14, R14

idslowlane:
	MOVQ  BX, R13
	ORQ   R11, R13
	TESTQ $1, R13
	JEQ   idslownext
	MOVL  (R9)(R14*4), R12
	TESTQ $1, R11
	JEQ   idslowstore
	NOTL  R12
	INCQ  band+72(FP)

idslowstore:
	MOVL R12, (DI)(AX*4)
	INCQ AX

idslownext:
	SHRQ $1, BX
	SHRQ $1, R11
	INCQ R14
	CMPQ R14, $4
	JLT  idslowlane

idnext:
	ADDQ $16, R9
	SUBQ $4, R10
	JMP  idgroup

iddone:
	VZEROUPPER
	MOVQ AX, k+64(FP)
	RET

badid:
	MOVQ nids+48(FP), AX
	SUBQ R10, AX
	NOTQ AX // -1-i for the group starting at ids[i]
	JMP  iddone

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
