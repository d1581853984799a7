package vector

import (
	"fmt"
	"math/bits"
	"slices"
)

// The Hamming twins of the within-radius batch kernels, over the flat
// binary store's n × wpr word matrix. Plain Go on every platform: a
// distance is an integer, so there is no rounding for two implementations
// to disagree on, and one XOR + POPCNT per word leaves only the loop
// around them to pay for. Each kernel has two loop bodies: the one-word
// row (a 64-bit fingerprint — no call, no re-slice, one compare per row)
// and the general row, which counts through hammingWordsUpTo.

// HammingWithin appends to out the ids among ids whose row of words is
// within Hamming distance thr of q, in input order. words holds n rows of
// wpr words. A distance equal to thr passes; a negative thr passes
// nothing. It panics if words is not n×wpr, if q is not wpr words (while
// there are rows to compare it with), or if an id is outside [0, n).
func HammingWithin(out []int32, q, words []uint64, wpr, n int, ids []int32, thr int) []int32 {
	checkWords(q, words, wpr, n)
	for len(ids) > 0 {
		c := ids[:min(len(ids), withinChunk)]
		ids = ids[len(c):]
		out = slices.Grow(out, len(c))
		if wpr == 1 {
			out = out[:len(out)+hammingWithinIDs1(out[len(out):len(out)+len(c)], q[0], words, c, thr)]
			continue
		}
		for _, id := range c {
			if uint(id) >= uint(n) {
				panicRowID(id, n)
			}
			if hammingWordsUpTo(q, words[int(id)*wpr:][:wpr], thr) <= thr {
				out = append(out, id)
			}
		}
	}
	return out
}

// HammingWithinAll is HammingWithin over every row: it appends the row
// numbers in [0, n) whose row is within thr of q, ascending.
func HammingWithinAll(out []int32, q, words []uint64, wpr, n int, thr int) []int32 {
	checkWords(q, words, wpr, n)
	for first := 0; first < n; first += withinChunk {
		c := min(n-first, withinChunk)
		out = slices.Grow(out, c)
		if wpr == 1 {
			out = out[:len(out)+hammingWithinRows1(out[len(out):len(out)+c], q[0], words[first:first+c], first, thr)]
			continue
		}
		for i := first; i < first+c; i++ {
			if hammingWordsUpTo(q, words[i*wpr:][:wpr], thr) <= thr {
				out = append(out, int32(i))
			}
		}
	}
	return out
}

// The one-word bodies are functions of their own, over one chunk, writing
// into room the kernel grew: alone in its frame the loop stays in
// registers, and it stores every id and advances the write position only
// past those that pass, so a row costs the same either way — with an if
// around an append these loops ran at 2.2 ns/row where an eighth of the
// rows passed and 5.7 where half did (branch misses), against 1.0–1.4.
// Each returns how many ids it kept at the front of dst.

func hammingWithinIDs1(dst []int32, q0 uint64, words []uint64, ids []int32, thr int) int {
	k := 0
	for _, id := range ids {
		if uint(id) >= uint(len(words)) {
			panicRowID(id, len(words))
		}
		dst[k] = id
		if bits.OnesCount64(words[id]^q0) <= thr {
			k++
		}
	}
	return k
}

// hammingWithinRows1 numbers its rows from first. Left to itself the
// compiler inlines it, back into the kernel's crowded frame.
//
//go:noinline
func hammingWithinRows1(dst []int32, q0 uint64, rows []uint64, first int, thr int) int {
	k := 0
	for i, w := range rows {
		dst[k] = int32(first + i)
		if bits.OnesCount64(w^q0) <= thr {
			k++
		}
	}
	return k
}

// hammingWordsUpTo is the package's one wide-row popcount loop: the
// popcount of a XOR b in 4-word blocks, given up as soon as the running
// count passes thr (the return is then some count above thr, not the
// distance). Integer addition is associative, so the sum has no order to
// keep.
func hammingWordsUpTo(a, b []uint64, thr int) int {
	n, i := 0, 0
	for ; i+4 <= len(a) && n <= thr; i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		n += (bits.OnesCount64(aa[0]^bb[0]) + bits.OnesCount64(aa[1]^bb[1])) +
			(bits.OnesCount64(aa[2]^bb[2]) + bits.OnesCount64(aa[3]^bb[3]))
	}
	for ; i < len(a) && n <= thr; i++ {
		n += bits.OnesCount64(a[i] ^ b[i])
	}
	return n
}

func checkWords(q, words []uint64, wpr, n int) {
	if n < 0 || wpr < 0 || len(words) != n*wpr {
		panic(fmt.Sprintf("vector: %d words are not %d rows of %d words", len(words), n, wpr))
	}
	if n > 0 && len(q) != wpr {
		panic(fmt.Sprintf("vector: query of %d words against rows of %d", len(q), wpr))
	}
}
