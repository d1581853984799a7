package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/rng"
)

// The Hamming kernels are tested against the code they replaced: the flat
// binary store used to walk its rows one call at a time and keep row i
// when float64(HammingWords(q, row)) <= r. refHammingWords is that
// function as it was (four accumulators, no early exit), so the reference
// shares no loop with the kernels.

func refHammingWords(a, b []uint64) int {
	var n0, n1, n2, n3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		n0 += bits.OnesCount64(a[i] ^ b[i])
		n1 += bits.OnesCount64(a[i+1] ^ b[i+1])
		n2 += bits.OnesCount64(a[i+2] ^ b[i+2])
		n3 += bits.OnesCount64(a[i+3] ^ b[i+3])
	}
	for ; i < len(a); i++ {
		n0 += bits.OnesCount64(a[i] ^ b[i])
	}
	return (n0 + n1) + (n2 + n3)
}

func refHammingWithin(out []int32, q, words []uint64, wpr int, ids []int32, thr int) []int32 {
	for _, id := range ids {
		if float64(refHammingWords(q, words[int(id)*wpr:(int(id)+1)*wpr])) <= float64(thr) {
			out = append(out, id)
		}
	}
	return out
}

// hammingCase draws q and n rows of wpr words: row 0 is q itself, every
// third row is q with a few bits flipped (so small thresholds select
// something), the rest are uniform.
func hammingCase(r *rng.Rand, wpr, n int) (q, words []uint64) {
	q = make([]uint64, wpr)
	for i := range q {
		q[i] = r.Uint64()
	}
	words = make([]uint64, n*wpr)
	for i := 0; i < n; i++ {
		row := words[i*wpr : (i+1)*wpr]
		if i%3 != 0 {
			for j := range row {
				row[j] = r.Uint64()
			}
			continue
		}
		copy(row, q)
		for f := (i / 3) % (4 * wpr); f > 0 && wpr > 0; f-- {
			b := r.Intn(64 * wpr)
			row[b>>6] ^= 1 << (b & 63)
		}
	}
	return q, words
}

// checkHammingAgainstRef compares both kernels with the old per-row
// predicate at thr, through a non-empty out prefix.
func checkHammingAgainstRef(t *testing.T, q, words []uint64, wpr, n int, ids []int32, thr int) {
	t.Helper()
	prefix := []int32{-7, 42}
	want := refHammingWithin(slices.Clone(prefix), q, words, wpr, ids, thr)
	got := HammingWithin(slices.Clone(prefix), q, words, wpr, n, ids, thr)
	if !slices.Equal(got, want) {
		t.Fatalf("wpr %d n %d thr %d: HammingWithin over %d ids = %v, reference %v", wpr, n, thr, len(ids), got, want)
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	want = refHammingWithin(slices.Clone(prefix), q, words, wpr, all, thr)
	got = HammingWithinAll(slices.Clone(prefix), q, words, wpr, n, thr)
	if !slices.Equal(got, want) {
		t.Fatalf("wpr %d n %d thr %d: HammingWithinAll = %v, reference %v", wpr, n, thr, got, want)
	}
}

// hammingIDLists are the candidate lists every case runs over: random
// with repeats, every row descending, and none.
func hammingIDLists(r *rng.Rand, n int) [][]int32 {
	if n == 0 {
		return [][]int32{nil}
	}
	random := make([]int32, 2*n+3)
	for i := range random {
		random[i] = int32(r.Intn(n))
	}
	desc := make([]int32, n)
	for i := range desc {
		desc[i] = int32(n - 1 - i)
	}
	return [][]int32{random, desc, nil}
}

func TestHammingWithinMatchesReference(t *testing.T) {
	r := rng.New(24)
	for _, wpr := range []int{1, 2, 3, 4, 5, 13} {
		dim := 64 * wpr
		for _, n := range []int{0, 1, 255, 256, 257, 1000} {
			q, words := hammingCase(r, wpr, n)
			for _, ids := range hammingIDLists(r, n) {
				// dim/2 splits the uniform rows, 2*wpr the flipped ones.
				for _, thr := range []int{-1, 0, 1, 2 * wpr, dim / 2, dim - 1, dim, dim + 1, math.MinInt, math.MaxInt} {
					checkHammingAgainstRef(t, q, words, wpr, n, ids, thr)
				}
			}
		}
	}
}

func TestHammingWithinEmpty(t *testing.T) {
	q := []uint64{1, 2}
	if got := HammingWithin([]int32{5}, q, nil, 2, 0, nil, 9); !slices.Equal(got, []int32{5}) {
		t.Fatalf("no rows, no ids: %v", got)
	}
	// A store that holds nothing has no row width for q to disagree with.
	if got := HammingWithinAll([]int32{5}, q, nil, 0, 0, 9); !slices.Equal(got, []int32{5}) {
		t.Fatalf("no rows: %v", got)
	}
	// Zero-bit rows are all at distance 0.
	if got := HammingWithinAll(nil, nil, nil, 0, 3, 0); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("wpr 0: %v", got)
	}
	if got := HammingWithin(nil, nil, nil, 0, 3, []int32{2, 2, 0}, -1); len(got) != 0 {
		t.Fatalf("wpr 0 below zero: %v", got)
	}
}

// TestHammingWithinPanics: a row id outside [0, n) stops the kernel
// wherever in the list it sits, on either loop body, and a matrix or
// query of the wrong shape is refused up front.
func TestHammingWithinPanics(t *testing.T) {
	for _, wpr := range []int{1, 3} {
		q, words := hammingCase(rng.New(25), wpr, 300)
		good := make([]int32, 600)
		for i := range good {
			good[i] = int32(i % 300)
		}
		for _, bad := range []int32{-1, 300, math.MaxInt32, math.MinInt32} {
			for _, at := range []int{0, 17, 255, 256, 599} {
				ids := slices.Clone(good)
				ids[at] = bad
				mustPanic(t, fmt.Sprintf("wpr %d id %d at %d", wpr, bad, at), func() { HammingWithin(nil, q, words, wpr, 300, ids, 64) })
			}
		}
		mustPanic(t, "id 0 of no rows", func() { HammingWithin(nil, q, nil, wpr, 0, []int32{0}, 64) })
		mustPanic(t, "short matrix", func() { HammingWithin(nil, q, words[:len(words)-1], wpr, 300, nil, 64) })
		mustPanic(t, "short matrix (all)", func() { HammingWithinAll(nil, q, words[:len(words)-1], wpr, 300, 64) })
		mustPanic(t, "wrong row width", func() { HammingWithinAll(nil, q, words, wpr+1, 300, 64) })
		mustPanic(t, "long q", func() { HammingWithinAll(nil, append(slices.Clone(q), 0), words, wpr, 300, 64) })
		mustPanic(t, "short q", func() { HammingWithin(nil, q[:wpr-1], words, wpr, 300, nil, 64) })
		mustPanic(t, "negative n", func() { HammingWithinAll(nil, q, nil, wpr, -1, 64) })
	}
	mustPanic(t, "id 3 of 3 zero-bit rows", func() { HammingWithin(nil, nil, nil, 0, 3, []int32{3}, 1) })
}

// TestHammingWordsIsTheDistance: the exported popcount is the kernel's
// row loop with no bound, so it must still be the full count at every
// length around the 4-word block.
func TestHammingWordsIsTheDistance(t *testing.T) {
	r := rng.New(26)
	for words := 0; words <= 21; words++ {
		a, b := make([]uint64, words), make([]uint64, words)
		for i := range a {
			a[i], b[i] = r.Uint64(), r.Uint64()
		}
		if got, want := HammingWords(a, b), refHammingWords(a, b); got != want {
			t.Fatalf("%d words: HammingWords = %d, want %d", words, got, want)
		}
		for _, thr := range []int{-1, 0, 31, 64 * words} {
			got, want := hammingWordsUpTo(a, b, thr), refHammingWords(a, b)
			if (got <= thr) != (want <= thr) || (want <= thr && got != want) {
				t.Fatalf("%d words thr %d: hammingWordsUpTo = %d, distance %d", words, thr, got, want)
			}
		}
	}
}

// fuzzHammingCase decodes a fuzz input: the first byte picks the row
// width from the tested set, the rest is raw words — q first, then as
// many whole rows as remain.
func fuzzHammingCase(data []byte) (q, words []uint64, wpr, n int) {
	if len(data) == 0 {
		return nil, nil, 0, 0
	}
	wpr = []int{1, 2, 3, 4, 5, 13}[int(data[0])%6]
	data = data[1:]
	vals := make([]uint64, len(data)/8)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if len(vals) < wpr {
		return nil, nil, 0, 0
	}
	n = (len(vals) - wpr) / wpr
	return vals[:wpr:wpr], vals[wpr : wpr+n*wpr], wpr, n
}

func FuzzHammingWithin(f *testing.F) {
	seed := func(sel byte, thr int, vals ...uint64) {
		b := []byte{sel}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		f.Add(b, thr)
	}
	seed(0, 16, 0xffff, 0xffff, 0, ^uint64(0), 0xff00)
	seed(1, 1, 1, 2, 1, 2, 3, 2, 1, 0)
	seed(2, 96, 7, 7, 7, 0, 0, 0, 7, 7, 6, ^uint64(0), ^uint64(0), ^uint64(0))
	seed(5, 400, make([]uint64, 39)...)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, thr int) {
		q, words, wpr, n := fuzzHammingCase(data)
		ids := make([]int32, 0, 2*n)
		for i := n - 1; i >= 0; i-- {
			ids = append(ids, int32(i), int32((i*7)%n))
		}
		checkHammingAgainstRef(t, q, words, wpr, n, ids, thr)
		// thr taken mod the row's bit count lands among the distances.
		if wpr > 0 {
			checkHammingAgainstRef(t, q, words, wpr, n, ids, ((thr%(64*wpr))+64*wpr)%(64*wpr))
		}
	})
}
