package pointstore

// Property tests for the flat stores: the SQ8-filtered + exact-recheck
// pipeline must report exactly the ids the exact-only store reports —
// on random data over a radius sweep, on adversarial near-boundary
// constructions, and after every mutation (Append in- and out-of-range,
// Compact, dimension adoption on an empty store).

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/distance"
	"repro/internal/rng"
	"repro/internal/vector"
)

// randDense generates n uniform points in [0,1)^dim.
func randDense(n, dim int, seed uint64) []vector.Dense {
	r := rng.New(seed)
	pts := make([]vector.Dense, n)
	for i := range pts {
		p := make(vector.Dense, dim)
		for j := range p {
			p[j] = float32(r.Float64())
		}
		pts[i] = p
	}
	return pts
}

// randBinary generates n random dim-bit codes.
func randBinary(n, dim int, seed uint64) []vector.Binary {
	r := rng.New(seed)
	pts := make([]vector.Binary, n)
	for i := range pts {
		b := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		pts[i] = b
	}
	return pts
}

// radiusSweep picks radii spanning empty to near-total result sets from
// the pairwise distance distribution of (q, pts).
func radiusSweep(pts []vector.Dense, q vector.Dense) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = math.Sqrt(vector.L2Sq(q, p))
	}
	slices.Sort(ds)
	pick := func(frac float64) float64 { return ds[int(frac*float64(len(ds)-1))] }
	return []float64{0, pick(0.01), pick(0.1), pick(0.5), pick(0.9), ds[len(ds)-1]}
}

// assertSameIDs fails unless the two stores answer identically for the
// given query and radius, via both ScanRadius and VerifyRadius over a
// deterministic candidate subset. Both stores preserve candidate order,
// so the comparison is element-wise.
func assertSameIDs(t *testing.T, stage string, exact, quant Store[vector.Dense], q vector.Dense, r float64) {
	t.Helper()
	a := exact.ScanRadius(q, r, nil)
	b := quant.ScanRadius(q, r, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("%s r=%g: ScanRadius exact %v != quant %v", stage, r, a, b)
	}
	n := exact.Len()
	cands := make([]int32, 0, n/2+1)
	for i := 0; i < n; i += 2 {
		cands = append(cands, int32(i))
	}
	a = exact.VerifyRadius(q, cands, r, nil)
	b = quant.VerifyRadius(q, cands, r, nil)
	if !slices.Equal(a, b) {
		t.Fatalf("%s r=%g: VerifyRadius exact %v != quant %v", stage, r, a, b)
	}
}

// TestSQ8MatchesExactRandom is the headline property: on random data,
// the SQ8 store's answers equal the exact store's for every radius in a
// sweep from empty to all-inclusive result sets.
func TestSQ8MatchesExactRandom(t *testing.T) {
	for _, dim := range []int{3, 8, 32} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			pts := randDense(300, dim, uint64(dim))
			exact, err := NewFlatL2(pts, ModeOff)
			if err != nil {
				t.Fatal(err)
			}
			quant, err := NewFlatL2(pts, ModeSQ8)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range pts[:10] {
				for _, r := range radiusSweep(pts, q) {
					assertSameIDs(t, fmt.Sprintf("query %d", qi), exact, quant, q, r)
				}
			}
		})
	}
}

// TestSQ8NearBoundary places points at distances straddling r as
// tightly as float32 geometry allows — exactly r, r scaled by ±1 ulp-ish
// factors, and decode-cell-boundary coordinates — where a pre-filter
// with a broken bound would diverge first.
func TestSQ8NearBoundary(t *testing.T) {
	const dim = 8
	const r = 0.25
	rr := rng.New(99)
	q := make(vector.Dense, dim)
	for j := range q {
		q[j] = float32(rr.Float64())
	}
	var pts []vector.Dense
	// Points at distance r·f along random directions, f straddling 1.
	for _, f := range []float64{0.999, 0.999999, 1, 1.000001, 1.001, 0.5, 2} {
		for k := 0; k < 8; k++ {
			dir := make([]float64, dim)
			var norm float64
			for j := range dir {
				dir[j] = rr.Normal()
				norm += dir[j] * dir[j]
			}
			norm = math.Sqrt(norm)
			p := make(vector.Dense, dim)
			for j := range p {
				p[j] = q[j] + float32(dir[j]/norm*r*f)
			}
			pts = append(pts, p)
		}
	}
	// Background spread so the SQ8 fit has a non-degenerate range, plus
	// points sitting exactly on quantization cell boundaries of that fit.
	pts = append(pts, randDense(100, dim, 7)...)
	exact, err := NewFlatL2(pts, ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewFlatL2(pts, ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	cell := make(vector.Dense, dim)
	for j := 0; j < dim; j++ {
		// Half-way between two codes: the worst decode error per dim.
		cell[j] = quant.q.minv[j] + quant.q.scale[j]*127.5
	}
	if err := exact.Append([]vector.Dense{cell}); err != nil {
		t.Fatal(err)
	}
	if err := quant.Append([]vector.Dense{cell}); err != nil {
		t.Fatal(err)
	}
	for _, rad := range []float64{0, r * 0.5, r * 0.999999, r, r * 1.000001, r * 4} {
		assertSameIDs(t, "boundary", exact, quant, q, rad)
	}
	// The crafted cell-boundary point must be found at its own location.
	got := quant.ScanRadius(cell, 0, nil)
	if !slices.Contains(got, int32(quant.Len()-1)) {
		t.Fatalf("cell-boundary point missing from its own r=0 scan: %v", got)
	}
}

// TestSQ8Mutations walks the full mutation lifecycle and re-checks
// equivalence at every step: in-range Append (incremental encode, no
// refit), out-of-range Append (forced refit), Compact (fit carried,
// codes gathered).
func TestSQ8Mutations(t *testing.T) {
	pts := randDense(240, 12, 5)
	exact, err := NewFlatL2(pts[:120:120], ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewFlatL2(pts[:120:120], ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, e, z Store[vector.Dense]) {
		t.Helper()
		for _, q := range pts[:6] {
			for _, r := range radiusSweep(e.Rows(0, e.Len()), q) {
				assertSameIDs(t, stage, e, z, q, r)
			}
		}
	}
	check("build", exact, quant)

	// In-range append: every value of pts is in [0,1), but the fitted
	// range is the observed min/max, so some rows may still force a
	// refit; assert only that equivalence holds.
	if err := exact.Append(pts[120:]); err != nil {
		t.Fatal(err)
	}
	if err := quant.Append(pts[120:]); err != nil {
		t.Fatal(err)
	}
	check("append", exact, quant)

	// Out-of-range append must refit: values far outside [0,1).
	far := randDense(20, 12, 6)
	for _, p := range far {
		for j := range p {
			p[j] = p[j]*10 - 5
		}
	}
	refitsBefore := quant.Stats().QuantRefits
	if err := exact.Append(far); err != nil {
		t.Fatal(err)
	}
	if err := quant.Append(far); err != nil {
		t.Fatal(err)
	}
	if got := quant.Stats().QuantRefits; got != refitsBefore+1 {
		t.Fatalf("QuantRefits = %d after out-of-range append, want %d", got, refitsBefore+1)
	}
	check("refit", exact, quant)

	// Compact a third away; the survivors' answers must stay equal and
	// the receivers must stay usable.
	n := exact.Len()
	dead := make([]bool, n)
	live := 0
	for i := range dead {
		if i%3 == 0 {
			dead[i] = true
		} else {
			live++
		}
	}
	ce, err := exact.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := quant.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Len() != live || cq.Len() != live {
		t.Fatalf("compacted lengths %d/%d, want %d", ce.Len(), cq.Len(), live)
	}
	check("compact", ce, cq)
	check("receiver-after-compact", exact, quant)
}

// TestFlatL2DimAdoption pins the empty-store lifecycle: a store built
// over zero points has no dimension, adopts the first Append's, refits
// the (dimensionless) SQ8 state, and answers correctly afterwards.
func TestFlatL2DimAdoption(t *testing.T) {
	for _, mode := range []Mode{ModeOff, ModeSQ8} {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := NewFlatL2(nil, mode)
			if err != nil {
				t.Fatal(err)
			}
			if st.Dim() != 0 || st.Len() != 0 {
				t.Fatalf("empty store dim=%d n=%d", st.Dim(), st.Len())
			}
			// Queries against the empty store are no-ops, any dim.
			if got := st.ScanRadius(make(vector.Dense, 10), 1, nil); len(got) != 0 {
				t.Fatalf("empty ScanRadius returned %v", got)
			}
			pts := randDense(50, 10, 3)
			if err := st.Append(pts); err != nil {
				t.Fatal(err)
			}
			if st.Dim() != 10 {
				t.Fatalf("dim = %d after adoption, want 10", st.Dim())
			}
			exact, err := NewFlatL2(pts, ModeOff)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range pts[:4] {
				for _, r := range radiusSweep(pts, q) {
					assertSameIDs(t, "adopted", exact, st, q, r)
				}
			}
			if err := st.Append([]vector.Dense{make(vector.Dense, 4)}); err == nil {
				t.Fatal("Append accepted a wrong-dim point after adoption")
			}
		})
	}
}

// TestLUTDistMatchesDecode pins the ADC identity: the lookup-table sum
// must equal the decode-then-subtract quantized distance (same real
// arithmetic, modulo float32 rounding absorbed by qslack).
func TestLUTDistMatchesDecode(t *testing.T) {
	pts := randDense(60, 16, 11)
	st, err := NewFlatL2(pts, ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	z := st.q
	q := pts[0]
	lut := z.buildLUT(q)
	defer z.putLUT(lut)
	for i := 0; i < st.Len(); i++ {
		codes := z.codes[i*st.dim : (i+1)*st.dim]
		var want float64
		for j, c := range codes {
			d := float64(q[j]) - (float64(z.minv[j]) + float64(z.scale[j])*float64(c))
			want += d * d
		}
		got := lutDistSq(lut, codes)
		if diff := math.Abs(got - want); diff > qslack*(want+1) {
			t.Fatalf("row %d: lut %g vs decode %g (diff %g)", i, got, want, diff)
		}
	}
}

// TestFlatL2Stats pins the counter accounting: every verified candidate
// is either rejected by the pre-filter or re-checked exactly, and the
// quantized copy is one byte per coordinate.
func TestFlatL2Stats(t *testing.T) {
	pts := randDense(200, 8, 13)
	st, err := NewFlatL2(pts, ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, st.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	for _, q := range pts[:5] {
		st.VerifyRadius(q, ids, 0.3, nil)
	}
	got := st.Stats()
	if got.Layout != "flat" || got.Quant != "sq8" {
		t.Fatalf("layout/quant = %q/%q", got.Layout, got.Quant)
	}
	if got.QuantBytes != int64(len(pts)*8) {
		t.Fatalf("QuantBytes = %d, want %d", got.QuantBytes, len(pts)*8)
	}
	if got.Verified != uint64(5*len(ids)) {
		t.Fatalf("Verified = %d, want %d", got.Verified, 5*len(ids))
	}
	if got.QuantRejected+got.QuantAccepted+got.QuantRechecked != got.Verified {
		t.Fatalf("rejected %d + accepted %d + rechecked %d != verified %d",
			got.QuantRejected, got.QuantAccepted, got.QuantRechecked, got.Verified)
	}
	if got.QuantBound <= 0 {
		t.Fatalf("QuantBound = %g, want > 0 for a non-degenerate fit", got.QuantBound)
	}
}

// TestFlatL2Validation pins the error paths: mixed dimensions at build
// and append, and mismatched Compact inputs.
func TestFlatL2Validation(t *testing.T) {
	if _, err := NewFlatL2([]vector.Dense{make(vector.Dense, 3), make(vector.Dense, 4)}, ModeOff); err == nil {
		t.Fatal("NewFlatL2 accepted mixed dims")
	}
	st, err := NewFlatL2(randDense(10, 3, 1), ModeSQ8)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]vector.Dense{make(vector.Dense, 5)}); err == nil {
		t.Fatal("Append accepted a wrong-dim point")
	}
	if _, err := st.Compact(make([]bool, 3), 1); err == nil {
		t.Fatal("Compact accepted a wrong-length dead slice")
	}
	if _, err := st.Compact(make([]bool, 10), 99); err == nil {
		t.Fatal("Compact accepted a wrong live count")
	}
}

// TestFlatL2MatchesGeneric pins the batch kernels behind the exact store
// against the one-distance-call-per-candidate Generic store over the
// same squared-distance arithmetic (distance.L2Sq at radius r²): the
// answers must agree id for id and in the same order — over shuffled
// candidate lists with repeats longer than one kernel chunk, at radii
// that sit exactly on a point, with points a millionth either side of
// r, and appended to a non-empty out that has no room to spare.
func TestFlatL2MatchesGeneric(t *testing.T) {
	for _, dim := range []int{1, 3, 8, 32, 33} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			const r = 0.4
			pts := randDense(700, dim, uint64(100+dim))
			q := pts[0]
			rr := rng.New(uint64(dim))
			for _, f := range []float64{1 - 1e-6, 1, 1 + 1e-6} {
				for k := 0; k < 8; k++ {
					p := make(vector.Dense, dim)
					var norm float64
					for j := range p {
						p[j] = float32(rr.Normal())
						norm += float64(p[j]) * float64(p[j])
					}
					for j := range p {
						p[j] = q[j] + float32(float64(p[j])/math.Sqrt(norm)*r*f)
					}
					pts = append(pts, p)
				}
			}
			flat, err := NewFlatL2(pts, ModeOff)
			if err != nil {
				t.Fatal(err)
			}
			gen := NewGeneric(pts, distance.L2Sq)
			cands := make([]int32, 2*len(pts))
			for i := range cands {
				cands[i] = int32(rr.Intn(len(pts)))
			}
			for _, rad := range append(radiusSweep(pts, q), r, r*(1-1e-6), r*(1+1e-6)) {
				prefix := make([]int32, 2, 3)
				prefix[0], prefix[1] = -1, -2
				want := gen.VerifyRadius(q, cands, rad*rad, slices.Clone(prefix))
				got := flat.VerifyRadius(q, cands, rad, slices.Clone(prefix))
				if !slices.Equal(got, want) {
					t.Fatalf("r=%g: VerifyRadius flat %v != generic %v", rad, got, want)
				}
				want = gen.ScanRadius(q, rad*rad, slices.Clone(prefix))
				got = flat.ScanRadius(q, rad, slices.Clone(prefix))
				if !slices.Equal(got, want) {
					t.Fatalf("r=%g: ScanRadius flat %v != generic %v", rad, got, want)
				}
			}
		})
	}
}

// TestFlatL2BadIDPanics: a candidate id outside [0, n) must panic in
// either quantization mode — the kernels check it themselves — rather
// than read another point's row or memory past the backing.
func TestFlatL2BadIDPanics(t *testing.T) {
	pts := randDense(50, 8, 3)
	for _, mode := range []Mode{ModeOff, ModeSQ8} {
		st, err := NewFlatL2(pts, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []int32{-1, 50, math.MaxInt32, math.MinInt32} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v: VerifyRadius with id %d did not panic", mode, bad)
					}
				}()
				st.VerifyRadius(pts[0], []int32{1, 2, bad, 3}, 10, nil)
			}()
		}
	}
}

// TestFlatBinaryMatchesGeneric pins the word-level Hamming store
// against the generic exact store over a full radius sweep.
func TestFlatBinaryMatchesGeneric(t *testing.T) {
	pts := randBinary(200, 96, 17)
	flat, err := NewFlatBinary(pts)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGeneric(pts, distance.Hamming)
	cands := make([]int32, 0, len(pts)/2)
	for i := 0; i < len(pts); i += 2 {
		cands = append(cands, int32(i))
	}
	for _, q := range pts[:8] {
		for _, r := range []float64{0, 8, 24, 48, 96} {
			a := gen.ScanRadius(q, r, nil)
			b := flat.ScanRadius(q, r, nil)
			if !slices.Equal(a, b) {
				t.Fatalf("r=%g: ScanRadius generic %v != flat %v", r, a, b)
			}
			a = gen.VerifyRadius(q, cands, r, nil)
			b = flat.VerifyRadius(q, cands, r, nil)
			if !slices.Equal(a, b) {
				t.Fatalf("r=%g: VerifyRadius generic %v != flat %v", r, a, b)
			}
		}
	}
}

// TestFlatBinaryMutations pins append (including dimension adoption on
// the empty store) and compact against the generic store.
func TestFlatBinaryMutations(t *testing.T) {
	pts := randBinary(120, 64, 19)
	flat := EmptyFlatBinary(0)
	if err := flat.Append(pts[:60]); err != nil {
		t.Fatal(err)
	}
	if flat.Dim() != 64 {
		t.Fatalf("dim = %d after adoption, want 64", flat.Dim())
	}
	if err := flat.Append(pts[60:]); err != nil {
		t.Fatal(err)
	}
	gen := NewGeneric(pts, distance.Hamming)
	compare := func(stage string, g, f Store[vector.Binary]) {
		t.Helper()
		for _, q := range pts[:5] {
			for _, r := range []float64{0, 6, 20, 64} {
				a := g.ScanRadius(q, r, nil)
				b := f.ScanRadius(q, r, nil)
				if !slices.Equal(a, b) {
					t.Fatalf("%s r=%g: generic %v != flat %v", stage, r, a, b)
				}
			}
		}
	}
	compare("grown", gen, flat)

	dead := make([]bool, len(pts))
	live := 0
	for i := range dead {
		if i%4 == 1 {
			dead[i] = true
		} else {
			live++
		}
	}
	cg, err := gen.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := flat.Compact(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	compare("compacted", cg, cf)
}

// refHammingRadius is FlatBinary's filter as it was before the batch
// kernel: one row at a time, the bit count converted to float64 and
// compared with the radius as given.
func refHammingRadius(pts []vector.Binary, q vector.Binary, ids []int32, r float64) []int32 {
	var out []int32
	for _, id := range ids {
		n := 0
		for j, w := range pts[id].Words {
			n += bits.OnesCount64(w ^ q.Words[j])
		}
		if float64(n) <= r {
			out = append(out, id)
		}
	}
	return out
}

// TestFlatBinaryRadiusTable: the store turns the float radius into an
// integer bit bound once per call; at every awkward radius that bound
// must select what comparing float64(count) <= r per row selected, and
// the Verified counter must count what it always counted.
func TestFlatBinaryRadiusTable(t *testing.T) {
	for _, dim := range []int{64, 96, 784} {
		pts := randBinary(300, dim, uint64(dim))
		// Rows near the query, so small radii select something: point i
		// of the first 40 is point 0 with i bits flipped.
		for i := 1; i < 40; i++ {
			pts[i] = pts[0].Clone()
			for b := 0; b < i; b++ {
				pts[i].FlipBit(b)
			}
		}
		flat, err := NewFlatBinary(pts)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int32, len(pts))
		for i := range all {
			all[i] = int32(i)
		}
		cands := []int32{299, 3, 3, 16, 17, 0, 150, 16, 39, 1}
		d := float64(dim)
		var verified uint64
		for _, r := range []float64{
			math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 15.999, 16, 16.5,
			d / 2, d - 1, d, d + 0.5, 1e300, math.Inf(1),
		} {
			if got, want := flat.ScanRadius(pts[0], r, nil), refHammingRadius(pts, pts[0], all, r); !slices.Equal(got, want) {
				t.Fatalf("dim %d r=%v: ScanRadius %v, reference %v", dim, r, got, want)
			}
			if got, want := flat.VerifyRadius(pts[0], cands, r, nil), refHammingRadius(pts, pts[0], cands, r); !slices.Equal(got, want) {
				t.Fatalf("dim %d r=%v: VerifyRadius %v, reference %v", dim, r, got, want)
			}
			verified += uint64(len(pts) + len(cands))
			if got := flat.Stats().Verified; got != verified {
				t.Fatalf("dim %d r=%v: Verified = %d, want %d", dim, r, got, verified)
			}
		}
	}
}

// TestFlatBinaryPanics: a query of another dimension and a candidate id
// outside [0, n) are refused with the store's and the kernel's own
// messages; an empty store has no dimension to disagree with.
func TestFlatBinaryPanics(t *testing.T) {
	pts := randBinary(50, 64, 5)
	flat, err := NewFlatBinary(pts)
	if err != nil {
		t.Fatal(err)
	}
	panics := func(what, prefix string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, prefix) {
				t.Fatalf("%s: panicked with %q, want %q…", what, msg, prefix)
			}
		}()
		f()
	}
	wide := vector.NewBinary(128)
	panics("VerifyRadius dim", "pointstore: VerifyRadius query dim 128, want 64", func() { flat.VerifyRadius(wide, []int32{1}, 3, nil) })
	panics("ScanRadius dim", "pointstore: ScanRadius query dim 128, want 64", func() { flat.ScanRadius(wide, 3, nil) })
	for _, bad := range []int32{-1, 50, math.MaxInt32, math.MinInt32} {
		panics(fmt.Sprintf("id %d", bad), "vector: row id", func() { flat.VerifyRadius(pts[0], []int32{1, 2, bad, 3}, 10, nil) })
	}
	for _, empty := range []*FlatBinary{EmptyFlatBinary(0), EmptyFlatBinary(64)} {
		if got := empty.ScanRadius(wide, 3, nil); len(got) != 0 {
			t.Fatalf("empty store ScanRadius = %v", got)
		}
		if got := empty.VerifyRadius(wide, nil, 3, nil); len(got) != 0 {
			t.Fatalf("empty store VerifyRadius = %v", got)
		}
	}
}

// flatBacking is what the view test needs of either flat store: where
// its backing array starts, a way to change one stored row through the
// backing, and a reading of a point that the change moves.
type flatBacking[P any] struct {
	store Store[P]
	start func() unsafe.Pointer
	poke  func(id int)
	peek  func(P) float64
}

func l2Backing(s *FlatL2) flatBacking[vector.Dense] {
	return flatBacking[vector.Dense]{
		store: s,
		start: func() unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s.flat)) },
		poke:  func(id int) { s.flat[id*s.dim+1]++ },
		peek:  func(p vector.Dense) float64 { return float64(p[1]) },
	}
}

func binaryBacking(s *FlatBinary) flatBacking[vector.Binary] {
	return flatBacking[vector.Binary]{
		store: s,
		start: func() unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s.words)) },
		poke:  func(id int) { s.words[id*s.wpr] ^= 2 },
		peek:  func(p vector.Binary) float64 { return float64(p.Words[0] & 2) },
	}
}

// checkViewsLive writes to every row through the backing array and
// requires At and Rows to show the write, and every window of Rows to
// start at its own row.
func checkViewsLive[P any](t *testing.T, stage string, b flatBacking[P]) {
	t.Helper()
	n := b.store.Len()
	if got := len(b.store.Rows(0, n)); got != n {
		t.Fatalf("%s: Rows(0, %d) has %d points", stage, n, got)
	}
	for id := 0; id < n; id++ {
		before := b.peek(b.store.At(int32(id)))
		b.poke(id)
		if b.peek(b.store.At(int32(id))) == before || b.peek(b.store.Rows(id, n)[0]) == before {
			t.Fatalf("%s: the view of row %d of %d does not read the live backing", stage, id, n)
		}
	}
}

// TestViewsReadLiveBacking appends once so that the backing must move (a
// fresh store has no spare capacity), then again so that it must not
// (append's growth left room), and checks the views after each.
func TestViewsReadLiveBacking(t *testing.T) {
	dense := randDense(140, 8, 61)
	l2, err := NewFlatL2(dense[:100], ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	testViewsReadLiveBacking(t, l2Backing(l2), dense[100:])
	codes := randBinary(140, 96, 62)
	bin, err := NewFlatBinary(codes[:100])
	if err != nil {
		t.Fatal(err)
	}
	testViewsReadLiveBacking(t, binaryBacking(bin), codes[100:])
}

func testViewsReadLiveBacking[P any](t *testing.T, b flatBacking[P], batch []P) {
	t.Helper()
	checkViewsLive(t, "built", b)
	at := b.start()
	if err := b.store.Append(batch); err != nil {
		t.Fatal(err)
	}
	if b.start() == at {
		t.Fatal("first Append did not move the backing; the test needs it to")
	}
	checkViewsLive(t, "after a moving Append", b)
	at = b.start()
	if err := b.store.Append(batch[:1]); err != nil {
		t.Fatal(err)
	}
	if b.start() != at {
		t.Fatal("second Append moved the backing; the test needs it not to")
	}
	checkViewsLive(t, "after an in-place Append", b)
	n := b.store.Len()
	for _, bad := range []int32{-1, int32(n)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) of %d points did not panic", bad, n)
				}
			}()
			b.store.At(bad)
		}()
	}
}

// testAppendIsBatchSized: a 32-point Append into a 30 000-point store
// with spare capacity allocates nothing — its cost is the batch's, not
// the store's.
func testAppendIsBatchSized[P any](t *testing.T, st Store[P], warm, batch []P) {
	t.Helper()
	// Outgrow whatever the constructor allocated; append's growth then
	// leaves room for the measured batches.
	if err := st.Append(warm); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if allocs >= 1 {
		t.Fatalf("a %d-point Append into %d points allocated %.1f times", len(batch), st.Len(), allocs)
	}
	if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun > 4096 {
		t.Fatalf("a %d-point Append into %d points allocated %d bytes", len(batch), st.Len(), perRun)
	}
}

func TestAppendIsBatchSized(t *testing.T) {
	dense := randDense(31032, 32, 63)
	l2, err := NewFlatL2(dense[:30000], ModeOff)
	if err != nil {
		t.Fatal(err)
	}
	testAppendIsBatchSized[vector.Dense](t, l2, dense[30000:31000], dense[31000:])
	codes := randBinary(31032, 64, 64)
	bin, err := NewFlatBinary(codes[:30000])
	if err != nil {
		t.Fatal(err)
	}
	testAppendIsBatchSized[vector.Binary](t, bin, codes[30000:31000], codes[31000:])
}
