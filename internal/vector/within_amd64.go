//go:build !noasm

package vector

import "slices"

// haveAVX2 is probed once: the CPU has AVX2 and the OS saves the YMM
// state. Nothing else selects a kernel.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymm     = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymm != ymm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func l2SqWithin(out []int32, q Dense, flat []float32, n int, ids []int32, r2 float64) []int32 {
	if !haveAVX2 || len(q) == 0 || n == 0 {
		return l2SqWithinPortable(out, q, flat, n, ids, r2)
	}
	for len(ids) > 0 {
		c := ids[:min(len(ids), withinChunk)]
		ids = ids[len(c):]
		out = slices.Grow(out, len(c))
		k := l2SqWithinIDsAVX2(&out[:cap(out)][len(out)], &q[0], &flat[0], len(q), n, &c[0], len(c), r2)
		if k < 0 {
			panicRowID(c[-1-k], n)
		}
		out = out[:len(out)+k]
	}
	return out
}

func l2SqWithinAll(out []int32, q Dense, flat []float32, n int, r2 float64) []int32 {
	if !haveAVX2 || len(q) == 0 {
		return l2SqWithinAllPortable(out, q, flat, n, r2)
	}
	for first := 0; first < n; first += withinChunk {
		c := min(n-first, withinChunk)
		out = slices.Grow(out, c)
		k := l2SqWithinRowsAVX2(&out[:cap(out)][len(out)], &q[0], &flat[first*len(q)], len(q), first, c, r2)
		out = out[:len(out)+k]
	}
	return out
}

// l2SqWithinIDsAVX2 writes to dst the ids among ids[:nids] whose dim-wide
// row of flat is within r2 of q and returns how many it wrote; dst must
// have room for nids. An id outside [0, n) stops it: the return is then
// -1-i for the offending ids[i], and nothing was read out of bounds.
//
//go:noescape
func l2SqWithinIDsAVX2(dst *int32, q, flat *float32, dim, n int, ids *int32, nids int, r2 float64) int

// l2SqWithinRowsAVX2 is the same over nrows consecutive rows starting at
// rows, reporting row i as first+i.
//
//go:noescape
func l2SqWithinRowsAVX2(dst *int32, q, rows *float32, dim, first, nrows int, r2 float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
