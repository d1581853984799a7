package lsh

import (
	"encoding/binary"
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
				// The block path, screened or not, on every partial group
				// of four and eight points.
				for n := 1; n <= len(pts); n++ {
					got := make([]uint64, n)
					Keys[vector.Dense](restored, pts[:n], got, nil)
					if !slices.Equal(got, wantKeys[:n]) {
						t.Fatalf("%s dim %d k %d: Keys of %d points %#x, want %#x", fam.Name(), dim, k, n, got, wantKeys[:n])
					}
					restored.keysBy(pts[:n], got, &KeyScratch{}, true)
					if !slices.Equal(got, wantKeys[:n]) {
						t.Fatalf("%s dim %d k %d: screened keys of %d points %#x, want %#x", fam.Name(), dim, k, n, got, wantKeys[:n])
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
			"Keys":              func() { Keys[vector.Dense](h, []vector.Dense{make(vector.Dense, 8), p}, make([]uint64, 2), nil) },
			"keysBy":            func() { h.keysBy([]vector.Dense{make(vector.Dense, 8), p}, make([]uint64, 2), &KeyScratch{}, true) },
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
			var s KeyScratch
			keys := make([]uint64, 65)
			for _, n := range []int{1, 32, 64, 65} {
				pts := slices.Repeat([]vector.Dense{p}, n)
				if a := testing.AllocsPerRun(20, func() { Keys[vector.Dense](h, pts, keys, &s) }); a != 0 {
					t.Errorf("dim %d k %d: Keys of %d points allocates %v times", dim, k, n, a)
				}
			}
		}
	}
}

// BenchmarkKernelPStableKeys hashes query points through the L = 50
// tables of k = 7 Gaussian projections a dense128-batch shard holds (and
// the same at the Corel width, d = 32): one point through Key, and a
// /batch block of 64 through the float64 reference block path and
// through the float32 screen. ns/query is the shard's whole hashing
// cost per query point; band/proj is the share of projections the
// screen recomputed with Dot.
func BenchmarkKernelPStableKeys(b *testing.B) {
	const L, k, block = 50, 7, 64
	for _, dim := range []int{128, 32} {
		r := rng.New(uint64(dim))
		fam := NewPStableL2(dim, 0.6)
		hs := make([]*PStableHasher, L)
		for j := range hs {
			hs[j] = fam.NewPStableHasher(k, r)
		}
		qs := make([]vector.Dense, block)
		for i := range qs {
			qs[i] = make(vector.Dense, dim)
			for j := range qs[i] {
				qs[i][j] = float32(r.Normal() * 0.3)
			}
		}
		b.Run(fmt.Sprintf("key-d-%d", dim), func(b *testing.B) {
			for b.Loop() {
				for _, h := range hs {
					h.Key(qs[0])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
		})
		keys := make([]uint64, block)
		for name, path := range map[string]func(*PStableHasher, *KeyScratch){
			"reference": func(h *PStableHasher, s *KeyScratch) { h.keysBy(qs, keys, s, false) },
			"screen":    func(h *PStableHasher, s *KeyScratch) { h.keysBy(qs, keys, s, true) },
		} {
			b.Run(fmt.Sprintf("%s-d-%d", name, dim), func(b *testing.B) {
				var s KeyScratch
				for b.Loop() {
					s.begin(qs)
					for _, h := range hs {
						path(h, &s)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/query")
				b.ReportMetric(float64(s.rechecked)/float64(b.N*block*L*k), "band/proj")
			})
		}
	}
}

// FuzzPStableKeys holds the float32 screen (keysBy) to the float64
// reference, key for key, where it is hardest: every offset b_i is
// placed so that ⟨a_i, p⟩ + b_i of the first point lands on a slot
// boundary, or one float64 ulp to either side of it, and the points are
// the fuzzer's raw float32 bits (NaN, Inf, subnormals and 1e30-scale
// coordinates included) or Gaussian draws of any scale. Gaussian (L2)
// and Cauchy (L1) projections alike.
func FuzzPStableKeys(f *testing.F) {
	f.Add(uint64(1), uint16(0x0807), []byte{})
	f.Add(uint64(2), uint16(0x7f06), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(3), uint16(0x2311), []byte{0x80, 0x3f, 0, 0, 0x80, 0x7f, 0, 0, 1, 0, 0, 0})
	f.Add(uint64(4), uint16(0xff01), []byte{0xff, 0xff, 0x7f, 0x7f, 0x9a, 0x99, 0x99, 0x71})
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, data []byte) {
		r := rng.New(seed)
		dim, k := 1+int(shape>>8)%130, 1+int(shape&0xff)%17
		cauchy := seed&1 == 1
		scale := math.Pow(10, float64(int(seed>>1%13)-6)) // 1e-6 … 1e6
		w := math.Pow(2, float64(int(seed>>5%9)-4)) * (1 + r.Float64())
		fam := NewPStableL2(dim, w)
		if cauchy {
			fam = NewPStableL1(dim, w)
		}
		pts := make([]vector.Dense, 1+int(seed>>9%20))
		for i := range pts {
			pts[i] = make(vector.Dense, dim)
			for j := range pts[i] {
				if len(data) >= 4 {
					pts[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(data))
					data = data[4:]
				} else {
					pts[i][j] = float32(r.Normal() * scale)
				}
			}
		}
		drawn := fam.NewPStableHasher(k, r)
		b := make([]float64, k)
		for i, a := range drawn.Projections() {
			proj := a.Dot(pts[0])
			b[i] = w*math.Ceil(proj/w) - proj
			switch r.Intn(3) {
			case 1:
				b[i] = math.Nextafter(b[i], math.Inf(1))
			case 2:
				b[i] = math.Nextafter(b[i], math.Inf(-1))
			}
		}
		h, err := RestorePStableHasher(w, drawn.Projections(), b)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, len(pts))
		h.keysBy(pts, got, &KeyScratch{}, true)
		for i, p := range pts {
			parts, _ := oldParts(h, p)
			if want := hashutil.HashInts(parts); got[i] != want {
				t.Fatalf("%s dim %d k %d w %v: screened key of point %d %#x, reference %#x (slots %v)", fam.Name(), dim, k, w, i, got[i], want, parts)
			}
		}
	})
}
