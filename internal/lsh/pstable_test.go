package lsh

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/rng"
	"repro/internal/vector"
)

// The p-stable hasher reads a packed float64 slab through
// vector.DotRows4. These tests hold it to the formulas it replaced, which
// called Dense.Dot once per projection: slot ⌊(⟨a_i, p⟩ + b_i)/w⌋,
// residual x − ⌊x⌋, key HashInts of the slots.

func oldParts(h *PStableHasher, p vector.Dense) ([]int64, []float64) {
	parts := make([]int64, h.K())
	res := make([]float64, h.K())
	for i, a := range h.Projections() {
		x := (a.Dot(p) + h.Offsets()[i]) / h.W()
		fl := math.Floor(x)
		parts[i], res[i] = int64(fl), x-fl
	}
	return parts, res
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestPStableHasherMatchesDot(t *testing.T) {
	r := rng.New(26)
	for _, dim := range []int{1, 2, 3, 4, 5, 31, 32, 33, 127, 128, 129, 257, 784} {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17} {
			for _, fam := range []*PStable{NewPStableL2(dim, 0.7), NewPStableL1(dim, 3)} {
				drawn := fam.NewPStableHasher(k, r)
				restored, err := RestorePStableHasher(drawn.W(), drawn.Projections(), drawn.Offsets())
				if err != nil {
					t.Fatal(err)
				}
				pts := make([]vector.Dense, 9)
				wantKeys := make([]uint64, len(pts))
				for round := range pts {
					p := make(vector.Dense, dim)
					for j := range p {
						p[j] = float32(r.Normal() * 2)
					}
					pts[round] = p
					wantParts, wantRes := oldParts(drawn, p)
					wantKeys[round] = hashutil.HashInts(wantParts)
					if round >= 4 {
						continue
					}
					for name, h := range map[string]*PStableHasher{"drawn": drawn, "restored": restored} {
						what := fmt.Sprintf("%s %s dim %d k %d", fam.Name(), name, dim, k)
						if got := h.Parts(p, []int64{-9}); !slices.Equal(got, append([]int64{-9}, wantParts...)) {
							t.Fatalf("%s: Parts %v, want %v", what, got[1:], wantParts)
						}
						parts, res := h.PartsAndResiduals(p)
						if !slices.Equal(parts, wantParts) || !sameBits(res, wantRes) {
							t.Fatalf("%s: PartsAndResiduals %v %v, want %v %v", what, parts, res, wantParts, wantRes)
						}
						if got, want := h.Key(p), hashutil.HashInts(wantParts); got != want {
							t.Fatalf("%s: Key %#x, want %#x", what, got, want)
						}
					}
				}
				// The block path, on every partial group of four points.
				for n := 1; n <= len(pts); n++ {
					got := make([]uint64, n)
					restored.Keys(pts[:n], got, nil)
					if !slices.Equal(got, wantKeys[:n]) {
						t.Fatalf("%s dim %d k %d: Keys of %d points %#x, want %#x", fam.Name(), dim, k, n, got, wantKeys[:n])
					}
				}
			}
		}
	}
}

func TestPStableHasherDimMismatchPanics(t *testing.T) {
	h := NewPStableL2(8, 1).NewPStableHasher(5, rng.New(3))
	for _, p := range []vector.Dense{make(vector.Dense, 7), make(vector.Dense, 9), nil} {
		for name, f := range map[string]func(){
			"Key":               func() { h.Key(p) },
			"Parts":             func() { h.Parts(p, nil) },
			"PartsAndResiduals": func() { h.PartsAndResiduals(p) },
			"Keys":              func() { h.Keys([]vector.Dense{make(vector.Dense, 8), p}, make([]uint64, 2), nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a dim-%d point did not panic", name, len(p))
					}
				}()
				f()
			}()
		}
	}
}

func TestPStableKeyDoesNotAllocate(t *testing.T) {
	r := rng.New(4)
	for _, dim := range []int{5, 128, 784} {
		for _, k := range []int{1, 7, 16} {
			h := NewPStableL2(dim, 1).NewPStableHasher(k, r)
			p := make(vector.Dense, dim)
			if n := testing.AllocsPerRun(20, func() { h.Key(p) }); n != 0 {
				t.Errorf("dim %d k %d: Key allocates %v times", dim, k, n)
			}
			// The block path too, through the caller's scratch (grown by
			// the warm-up call): a block under, at and over keysBlock.
			var proj []float64
			keys := make([]uint64, 65)
			for _, n := range []int{1, 32, 64, 65} {
				pts := slices.Repeat([]vector.Dense{p}, n)
				if a := testing.AllocsPerRun(20, func() { proj = h.Keys(pts, keys, proj) }); a != 0 {
					t.Errorf("dim %d k %d: Keys of %d points allocates %v times", dim, k, n, a)
				}
			}
		}
	}
}

// BenchmarkKernelPStableKeys hashes one query through the L = 50 tables
// of k = 7 Gaussian projections a dense128-batch shard holds (and the
// same at the Corel width, d = 32): ns/query is the shard's whole
// hashing cost for one query point.
func BenchmarkKernelPStableKeys(b *testing.B) {
	const L, k = 50, 7
	for _, dim := range []int{128, 32} {
		r := rng.New(uint64(dim))
		fam := NewPStableL2(dim, 0.6)
		hs := make([]*PStableHasher, L)
		for j := range hs {
			hs[j] = fam.NewPStableHasher(k, r)
		}
		q := make(vector.Dense, dim)
		for j := range q {
			q[j] = float32(r.Normal())
		}
		b.Run(fmt.Sprintf("d-%d", dim), func(b *testing.B) {
			for b.Loop() {
				for _, h := range hs {
					h.Key(q)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
		})
	}
}
