//go:build !noasm

package vector

import "slices"

// haveAVX2 and haveFMA are probed once: the CPU has AVX2 (and FMA) and
// the OS saves the YMM state. Nothing else selects a kernel.
var haveAVX2, haveFMA = detectAVX2()

func detectAVX2() (bool, bool) {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymm     = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&ymm != ymm {
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0, ebx&avx2 != 0 && ecx1&fma != 0
}

func l2SqWithin(out []int32, q Dense, flat []float32, n int, ids []int32, r2 float64) ([]int32, int) {
	lo, hi, ok := withinBand(len(q), r2)
	if !haveFMA || !ok || n == 0 || len(q) == 0 {
		return l2SqWithinPortable(out, q, flat, n, ids, r2), 0
	}
	var band int
	for len(ids) > 0 {
		c := ids[:min(len(ids), withinChunk)]
		ids = ids[len(c):]
		out = slices.Grow(out, len(c))
		k, b := l2SqWithinIDsFMA(&out[:cap(out)][len(out)], &q[0], &flat[0], len(q), n, &c[0], len(c), lo, hi)
		if k < 0 {
			l2SqWithinPortable(nil, q, flat, n, c[-1-k:], r2) // panics at the bad id
		}
		out, band = settle(out, len(out)+k, b, q, flat, r2), band+b
	}
	return out, band
}

// settle extends out to end and, when the screen left band > 0 rows
// undecided (written as ^id), decides each with l2SqRaw and closes the
// gaps, keeping input order.
func settle(out []int32, end, band int, q Dense, flat []float32, r2 float64) []int32 {
	start := len(out)
	out = out[:end]
	if band == 0 {
		return out
	}
	dim, w := len(q), start
	for _, id := range out[start:] {
		if id < 0 {
			if id = ^id; !(l2SqRaw(q, flat[int(id)*dim:int(id)*dim+dim]) <= r2) {
				continue
			}
		}
		out[w] = id
		w++
	}
	return out[:w]
}

// l2SqWithinIDsFMA is the screen over ids[:nids]: it writes to dst, in
// input order, every id whose row sum is ≤ lo and, as ^id, every id
// whose sum is in the band, and returns how many it wrote and how many
// of those are band ids; dst must have room for nids. An id outside
// [0, n) stops it: k is then -1-i for a group of four starting at ids[i]
// that holds it, and nothing was read out of bounds.
//
//go:noescape
func l2SqWithinIDsFMA(dst *int32, q, flat *float32, dim, n int, ids *int32, nids int, lo, hi float32) (k, band int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
