package lsh

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/hll"
	"repro/internal/rng"
	"repro/internal/vector"
)

// refHashOrder is hashOrder as one comparison sort: the indexes stably
// sorted by Mix64(key), so equal keys keep their index order.
func refHashOrder(keys []uint64) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(x, y int32) int {
		return cmp.Compare(hashutil.Mix64(keys[x]), hashutil.Mix64(keys[y]))
	})
	return perm
}

// slotmates returns c keys whose hashes share hashOrder's slot over n
// indexes with the first, so that runs of them interleave in one slot.
func slotmates(n, c int, r *rng.Rand) []uint64 {
	shift := 64 - max(bits.Len(uint(n))-2, 0)
	keys := []uint64{r.Uint64()}
	for len(keys) < c {
		if k := r.Uint64(); hashutil.Mix64(k)>>shift == hashutil.Mix64(keys[0])>>shift {
			keys = append(keys, k)
		}
	}
	return keys
}

// orderInputs are the key sets hashOrder is held to the reference on,
// by name: distinct keys (short slots, sorted where they do not
// ascend), an alphabet of 8 (every occupied slot one long run of equal
// keys, left as it is), two and nine keys of one slot drawn at random
// or alternating (runs interleaved in that slot, sorted stably) and an
// alphabet of 8 beside a few distinct keys.
func orderInputs(n int, r *rng.Rand) map[string][]uint64 {
	in := map[string][]uint64{}
	draw := func(name string, from func(i int) uint64) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = from(i)
		}
		in[name] = keys
	}
	alphabet := make([]uint64, 8)
	for i := range alphabet {
		alphabet[i] = r.Uint64()
	}
	two, nine := slotmates(n, 2, r), slotmates(n, 9, r)
	draw("distinct", func(int) uint64 { return r.Uint64() })
	draw("alphabet of 8", func(int) uint64 { return alphabet[r.Intn(8)] })
	draw("two runs in one slot", func(int) uint64 { return two[r.Intn(2)] })
	draw("nine runs in one slot", func(int) uint64 { return nine[r.Intn(9)] })
	draw("alternating runs in one slot", func(i int) uint64 { return two[i&1] })
	draw("alphabet of 8 and distinct", func(i int) uint64 {
		if i%5 == 0 {
			return r.Uint64()
		}
		return alphabet[r.Intn(8)]
	})
	return in
}

// TestHashOrderMatchesStableSort holds hashOrder to a stable comparison
// sort by Mix64(key), ties by index, and its sorted hashes to the keys'
// hashes in that order, on every input of orderInputs at each size.
func TestHashOrderMatchesStableSort(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{0, 1, 2, 3, 1000, 70000} {
		for name, keys := range orderInputs(n, r) {
			perm := make([]int32, n)
			sorted, done := hashOrder(perm, func(i int) uint64 { return keys[i] })
			if want := refHashOrder(keys); !slices.Equal(perm, want) {
				t.Fatalf("n %d, %s: hashOrder differs from the stable sort", n, name)
			}
			for k, i := range perm {
				if sorted[k] != hashutil.Mix64(keys[i]) {
					t.Fatalf("n %d, %s: sorted hash %d is %#x, key's hash %#x", n, name, k, sorted[k], hashutil.Mix64(keys[i]))
				}
			}
			done()
		}
	}
}

// refBuildSlab is buildSlab as it was: one Key call per point, the ids
// stably sorted by the hash of their keys, runs of equal keys found by
// comparing keys, and each sketch folded by AddID.
func refBuildSlab[P any](points []P, h Hasher[P], p Params) Slab {
	keys := make([]uint64, len(points))
	for i, pt := range points {
		keys[i] = h.Key(pt)
	}
	perm := refHashOrder(keys)
	var runs [][]int32
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && keys[perm[hi]] == keys[perm[lo]] {
			hi++
		}
		runs = append(runs, perm[lo:hi])
		lo = hi
	}
	sketches := 0
	for _, ids := range runs {
		if len(ids) >= p.HLLThreshold {
			sketches++
		}
	}
	b := newSlabBuilder(p.HLLRegisters, narrowFor(len(points)), len(runs), len(perm), sketches)
	for _, ids := range runs {
		var regs []uint8
		if len(ids) >= p.HLLThreshold {
			s := hll.New(p.HLLRegisters)
			for _, id := range ids {
				s.AddID(uint64(id))
			}
			regs = s.Registers()
		}
		addIDs(b, keys[ids[0]], ids, regs)
	}
	return b.finish()
}

// clusteredBinaries returns n points of dim bits around 10 centres,
// each bit flipped with a per-centre probability in [0.02, 0.2].
func clusteredBinaries(n, dim int, r *rng.Rand) []vector.Binary {
	centres := randomBinaries(10, dim, r.Uint64())
	flip := make([]float64, len(centres))
	for c := range flip {
		flip[c] = 0.02 + 0.18*r.Float64()
	}
	pts := make([]vector.Binary, n)
	for i := range pts {
		c := r.Intn(len(centres))
		pts[i] = centres[c].Clone()
		for bit := range dim {
			if r.Float64() < flip[c] {
				pts[i].FlipBit(bit)
			}
		}
	}
	return pts
}

// checkBuildSlab holds buildSlab to refBuildSlab slab for slab —
// heads, directory, id width, ids and registers — for each hasher.
func checkBuildSlab[P any](t *testing.T, name string, pts []P, hashers []Hasher[P], p Params) {
	t.Helper()
	var base KeyScratch
	base.begin(pts)
	ents := entriesFor(p.HLLRegisters, len(pts))
	for j, h := range hashers {
		got, want := buildSlab(pts, h, p, base.norms, &ents), refBuildSlab(pts, h, p)
		if d := slabDiff(&got, &want); d != "" {
			t.Fatalf("%s, table %d: buildSlab's %s differ from the reference's", name, j, d)
		}
	}
}

// TestBuildSlabMatchesReference runs checkBuildSlab on bit-sampling
// tables of few keys (long runs sharing slots), of many and of k > 64,
// over clustered points of one and of three words, at m = 128 (uint16
// entries) and m = 512 (uint32), up to 70 000 points (a wide slab), and
// on p-stable tables.
func TestBuildSlabMatchesReference(t *testing.T) {
	r := rng.New(23)
	for _, n := range []int{1, 2, 3, 1000, 70000} {
		for _, dim := range []int{64, 150} {
			pts := clusteredBinaries(n, dim, r)
			for _, k := range []int{3, 11, 70} {
				for _, m := range []int{128, 512} {
					hashers := []Hasher[vector.Binary]{NewBitSampling(dim).NewHasher(k, r), NewBitSampling(dim).NewHasher(k, r)}
					p := Params{K: k, L: len(hashers), HLLRegisters: m, HLLThreshold: 1 + r.Intn(12)}
					checkBuildSlab(t, fmt.Sprintf("n %d, dim %d, k %d, m %d", n, dim, k, m), pts, hashers, p)
				}
			}
		}
	}
	dense := make([]vector.Dense, 3000)
	for i := range dense {
		dense[i] = vector.Dense{float32(r.Normal()), float32(r.Normal()), float32(r.Normal())}
	}
	fam := NewPStableL2(3, 2)
	hashers := []Hasher[vector.Dense]{fam.NewHasher(2, r), fam.NewHasher(2, r), fam.NewHasher(2, r)}
	checkBuildSlab(t, "p-stable", dense, hashers, Params{K: 2, L: len(hashers), HLLRegisters: 16, HLLThreshold: 8})
}

// TestEntriesMatchAddID runs the slab tables through Build, Appends
// that stay in the overlay and that refreeze it, Compact, a restore and
// a Compact over a live overlay (exerciseTables) at m = 16, 128, 256
// and 512, each at a threshold that leaves sketched and unsketched
// buckets side by side: every sketch and every estimate must equal the
// map reference's, which folds ids by AddID. Entries are uint16 up to
// m = 256 and uint32 above.
func TestEntriesMatchAddID(t *testing.T) {
	const dim = 64
	r := rng.New(31)
	binaries := func(n int, seed uint64) []vector.Binary { return randomBinaries(n, dim, seed) }
	for _, m := range []int{16, 128, 256, 512} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			pts := binaries(300, 1)
			tb, err := Build(pts, NewBitSampling(dim), Params{K: 6, L: 5, HLLRegisters: m, HLLThreshold: 3 + r.Intn(5), Seed: uint64(m)})
			if err != nil {
				t.Fatal(err)
			}
			if (tb.ents.wide != nil) != (m > 256) || len(tb.ents.narrow)+len(tb.ents.wide) != len(pts) {
				t.Fatalf("%d narrow and %d wide entries for %d points at m = %d", len(tb.ents.narrow), len(tb.ents.wide), len(pts), m)
			}
			if st := tb.Stats(); st.SketchedBuckets == 0 || st.SketchedBuckets == st.Buckets {
				t.Fatalf("test setup: %d of %d buckets sketched", st.SketchedBuckets, st.Buckets)
			}
			ref := newRef(tb)
			ref.append(pts)
			exerciseTables(t, tb, ref, binaries, 0)
		})
	}
}
