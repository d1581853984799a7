package hll

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hashutil"
	"repro/internal/rng"
)

func TestNewValidatesM(t *testing.T) {
	for _, m := range []int{0, 1, 8, 15, 17, 100, MaxM * 2, -16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", m)
				}
			}()
			New(m)
		}()
	}
	for _, m := range []int{16, 32, 64, 128, 256, MaxM} {
		s := New(m)
		if len(s.Registers()) != m {
			t.Errorf("New(%d) has %d registers", m, len(s.Registers()))
		}
	}
}

// empty reports whether no register of s is set.
func empty(s *Sketch) bool {
	return !slices.ContainsFunc(s.Registers(), func(r uint8) bool { return r != 0 })
}

func TestEmptyEstimateIsZero(t *testing.T) {
	s := New(128)
	if !empty(s) {
		t.Fatal("fresh sketch has a register set")
	}
	if got := s.Estimate(); got != 0 {
		t.Fatalf("empty sketch estimate = %v, want 0", got)
	}
}

func TestSmallCardinalityExact(t *testing.T) {
	// Linear counting makes tiny cardinalities near-exact.
	s := New(128)
	for i := uint64(0); i < 10; i++ {
		s.AddID(i)
	}
	got := s.Estimate()
	if math.Abs(got-10) > 2 {
		t.Fatalf("estimate = %v, want ≈ 10", got)
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := New(128)
	for rep := 0; rep < 100; rep++ {
		for i := uint64(0); i < 50; i++ {
			s.AddID(i)
		}
	}
	got := s.Estimate()
	if math.Abs(got-50) > 8 {
		t.Fatalf("estimate with duplicates = %v, want ≈ 50", got)
	}
}

// TestAccuracyAcrossCardinalities is the core guarantee the hybrid search
// depends on: relative error within a few standard errors at every scale.
func TestAccuracyAcrossCardinalities(t *testing.T) {
	for _, m := range []int{32, 128, 1024} {
		stdErr := 1.04 / math.Sqrt(float64(m))
		for _, n := range []int{10, 100, 1000, 10000, 100000} {
			// Average over several seeds: the bound is on the std dev.
			var relSum float64
			const runs = 8
			for seed := 0; seed < runs; seed++ {
				s := New(m)
				base := uint64(seed) << 32
				for i := 0; i < n; i++ {
					s.AddID(base + uint64(i))
				}
				relSum += (s.Estimate() - float64(n)) / float64(n)
			}
			meanRel := relSum / runs
			// Mean of 8 runs: allow 4·stdErr/√8 plus small-n slack.
			tol := 4*stdErr/math.Sqrt(runs) + 3/float64(n)
			if math.Abs(meanRel) > tol {
				t.Errorf("m=%d n=%d: mean relative error %v exceeds %v", m, n, meanRel, tol)
			}
		}
	}
}

func TestPaperErrorBoundM128(t *testing.T) {
	// The paper reports ≤ 7% observed relative error at m = 128 on real
	// candidate sets; check we are in that regime on random sets.
	r := rng.New(99)
	var worst float64
	const runs = 40
	var sumAbs float64
	for run := 0; run < runs; run++ {
		s := New(128)
		n := 1000 + r.Intn(50000)
		base := r.Uint64()
		for i := 0; i < n; i++ {
			s.AddID(base + uint64(i)*2654435761)
		}
		rel := math.Abs(s.Estimate()-float64(n)) / float64(n)
		sumAbs += rel
		if rel > worst {
			worst = rel
		}
	}
	mean := sumAbs / runs
	if mean > 0.10 {
		t.Errorf("mean |relative error| at m=128 = %v, want ≤ 0.10", mean)
	}
	if worst > 0.35 {
		t.Errorf("worst |relative error| at m=128 = %v, implausibly large", worst)
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	// Sketch of A merged with sketch of B must equal sketch of A ∪ B
	// register-for-register (not just approximately).
	a, b, u := New(64), New(64), New(64)
	for i := uint64(0); i < 5000; i++ {
		a.AddID(i)
		u.AddID(i)
	}
	for i := uint64(2500); i < 9000; i++ {
		b.AddID(i)
		u.AddID(i)
	}
	a.Merge(b)
	for j, r := range a.Registers() {
		if r != u.Registers()[j] {
			t.Fatalf("register %d: merged %d != union %d", j, r, u.Registers()[j])
		}
	}
}

func TestMergePanicsOnMismatchedM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge across register counts did not panic")
		}
	}()
	New(32).Merge(New(64))
}

func TestMergeAlgebraProperties(t *testing.T) {
	// Commutative, associative, idempotent — the lattice properties that
	// make HLL safe to merge across L bucket partitions in any order.
	mk := func(seed uint64, n int) *Sketch {
		s := New(64)
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			s.AddID(r.Uint64())
		}
		return s
	}
	err := quick.Check(func(sa, sb, sc uint64) bool {
		a, b, c := mk(sa, 200), mk(sb, 300), mk(sc, 100)

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !equalRegs(ab, ba) {
			return false // commutativity
		}

		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !equalRegs(abc1, abc2) {
			return false // associativity
		}

		aa := a.Clone()
		aa.Merge(a)
		return equalRegs(aa, a) // idempotence
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func equalRegs(a, b *Sketch) bool {
	ra, rb := a.Registers(), b.Registers()
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func TestEstimateMonotoneUnderMerge(t *testing.T) {
	// Merging can never decrease any register, hence never decrease the
	// raw estimate by more than linear-counting jitter.
	a, b := New(128), New(128)
	for i := uint64(0); i < 3000; i++ {
		a.AddID(i)
	}
	for i := uint64(10000); i < 11000; i++ {
		b.AddID(i)
	}
	before := a.Estimate()
	a.Merge(b)
	if after := a.Estimate(); after < before-1e-9 {
		t.Fatalf("estimate decreased after merge: %v -> %v", before, after)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(32)
	a.AddID(1)
	b := a.Clone()
	if !equalRegs(a, b) {
		t.Fatal("Clone does not copy register state")
	}
	// Mutating the clone must not touch the original. Add ids until the
	// clone's registers visibly change, then compare.
	for id := uint64(2); id < 1000; id++ {
		b.AddID(id)
		if !equalRegs(a, b) {
			return // diverged: storage is independent
		}
	}
	t.Fatal("clone never diverged; registers are likely shared")
}

func TestReset(t *testing.T) {
	s := New(32)
	for i := uint64(0); i < 100; i++ {
		s.AddID(i)
	}
	s.Reset()
	if !empty(s) || s.Estimate() != 0 {
		t.Fatal("Reset did not clear the sketch")
	}
}

func TestDeterministicAcrossInsertOrder(t *testing.T) {
	// Register state must be independent of insertion order.
	ids := make([]uint64, 500)
	r := rng.New(4)
	for i := range ids {
		ids[i] = r.Uint64()
	}
	a, b := New(64), New(64)
	for _, id := range ids {
		a.AddID(id)
	}
	for i := len(ids) - 1; i >= 0; i-- {
		b.AddID(ids[i])
	}
	if !equalRegs(a, b) {
		t.Fatal("register state depends on insertion order")
	}
}

func TestRhoCapOnPathologicalHash(t *testing.T) {
	// A hash of all zeros must not index past the register range or produce
	// rho > 64 − p + 1.
	s := New(16) // p = 4
	s.Add(0)
	var max uint8
	for _, r := range s.Registers() {
		if r > max {
			max = r
		}
	}
	if max > 64-4+1 {
		t.Fatalf("rho = %d exceeds cap %d", max, 64-4+1)
	}
	if max == 0 {
		t.Fatal("Add(0) did not touch any register")
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(128)
	for i := 0; i < b.N; i++ {
		s.AddID(uint64(i))
	}
}

// mergeBytes is MergeRegisters as the byte loop it replaced.
func mergeBytes(dst, src []uint8) {
	for i, r := range src {
		if r > dst[i] {
			dst[i] = r
		}
	}
}

// TestMergeRegistersMatchesByteLoop holds the word-wide merge to the byte
// loop for every pair of ranks in [0, 64] in each of the eight lanes of
// a word, beside random neighbours (a borrow would leak into them) and
// in a word whose lanes all hold the pair.
func TestMergeRegistersMatchesByteLoop(t *testing.T) {
	r := rng.New(64)
	s, want := New(MinM), make([]uint8, MinM)
	other := make([]uint8, MinM)
	for a := range uint8(65) {
		for b := range uint8(65) {
			for lane := range 8 {
				for i := range other {
					s.regs[i], other[i] = uint8(r.Intn(65)), uint8(r.Intn(65))
				}
				s.regs[lane], other[lane] = a, b
				for i := 8; i < 16; i++ {
					s.regs[i], other[i] = a, b
				}
				copy(want, s.regs)
				mergeBytes(want, other)
				s.MergeRegisters(other)
				if !slices.Equal(s.regs, want) {
					t.Fatalf("max(%d, %d) in lane %d: merged %v, want %v", a, b, lane, s.regs, want)
				}
			}
		}
	}
}

// TestNegPow2MatchesLdexp holds the table Estimate reads to math.Ldexp
// for every rank a register can hold.
func TestNegPow2MatchesLdexp(t *testing.T) {
	for r := range 65 {
		if got, want := negPow2[r], math.Ldexp(1, -r); got != want {
			t.Fatalf("negPow2[%d] = %g, want %g", r, got, want)
		}
	}
}

// TestEstimateMatchesLdexpSum holds Estimate to the per-register
// math.Ldexp sum it replaced, bit for bit, on random register arrays of
// every width, sparse (linear counting) and dense alike.
func TestEstimateMatchesLdexpSum(t *testing.T) {
	r := rng.New(65)
	for m := MinM; m <= 4096; m *= 2 {
		for trial := range 50 {
			s := New(m)
			for i := range s.regs {
				if r.Intn(4) > trial%4 {
					s.regs[i] = uint8(r.Intn(65))
				}
			}
			var sum float64
			zeros := 0
			for _, x := range s.regs {
				sum += math.Ldexp(1, -int(x))
				if x == 0 {
					zeros++
				}
			}
			fm := float64(m)
			want := alpha(m) * fm * fm / sum
			if want <= 2.5*fm && zeros > 0 {
				want = fm * math.Log(fm/float64(zeros))
			}
			if got := s.Estimate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("m = %d, trial %d: Estimate = %v, Ldexp sum gives %v", m, trial, got, want)
			}
		}
	}
}

// BenchmarkKernelHLLMerge times a query's estimate-side merge: fifty
// 128-register bucket sketches folded into one scratch sketch, through
// the byte loop and through MergeRegisters; one op is one query.
func BenchmarkKernelHLLMerge(b *testing.B) {
	const tables, m = 50, 128
	buckets := make([][]uint8, tables)
	for j := range buckets {
		s := New(m)
		for i := range uint64(2000) {
			s.AddID(i*tables + uint64(j))
		}
		buckets[j] = s.Registers()
	}
	for _, bc := range []struct {
		name  string
		merge func(s *Sketch, regs []uint8)
	}{
		{"bytes", func(s *Sketch, regs []uint8) { mergeBytes(s.regs, regs) }},
		{"words", (*Sketch).MergeRegisters},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(m)
			for b.Loop() {
				s.Reset()
				for _, regs := range buckets {
					bc.merge(s, regs)
				}
			}
		})
	}
}

func BenchmarkEstimate128(b *testing.B) {
	s := New(128)
	for i := uint64(0); i < 10000; i++ {
		s.AddID(i)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Estimate()
	}
	_ = sink
}

// addBranching is Add as it was before entries: the register from the
// hash's top p bits, the rank from the leading zeros of the rest.
func addBranching(regs []uint8, p uint8, hash uint64) {
	idx := hash >> (64 - p)
	rho := uint8(bits.LeadingZeros64(hash<<p|1<<(uint(p)-1))) + 1
	if rho > regs[idx] {
		regs[idx] = rho
	}
}

// TestEntryFoldsAsAddID holds Entry and AddEntries to AddID bit for bit
// at every m: entries are computed from ids, so the ranks an id
// reaches are tested on hashes built to reach every rank 1…64−p+1 in
// the first, a middle and the last register (through entry, which
// Entry is over the element hash), and on the first 20 000 ids, folded
// through uint16 entries where m ≤ 256 and uint32 entries everywhere.
func TestEntryFoldsAsAddID(t *testing.T) {
	for p := uint8(4); p <= 16; p++ {
		m := 1 << p
		for _, reg := range []uint64{0, uint64(m / 2), uint64(m - 1)} {
			for rho := 1; rho <= 64-int(p)+1; rho++ {
				hash := reg << (64 - p)
				if low := 64 - int(p) - rho; low >= 0 { // the leading one, then bits below it
					hash |= 1<<low | 0x5555555555555555&(1<<low-1)
				}
				want := make([]uint8, m)
				addBranching(want, p, hash)
				s := New(m)
				s.Add(hash)
				e := entry(hash, p)
				if e>>8 != uint32(reg) || int(uint8(e)) != rho || !slices.Equal(s.Registers(), want) {
					t.Fatalf("m %d register %d rank %d: entry %#x, Add registers differ: %v", m, reg, rho, e, !slices.Equal(s.Registers(), want))
				}
			}
		}
		ids := make([]int32, 20000)
		e16, e32 := make([]uint16, len(ids)), make([]uint32, len(ids))
		want := New(m)
		for i := range ids {
			ids[i] = int32(i)
			e32[i] = Entry(uint64(i), m)
			e16[i] = uint16(e32[i])
			addBranching(want.regs, p, hashutil.ElementHash(uint64(i)))
		}
		got := New(m)
		AddEntries(got, e32, ids)
		if !slices.Equal(got.regs, want.regs) {
			t.Fatalf("m %d: uint32 entries fold to other registers than AddID", m)
		}
		if m <= 256 {
			got.Reset()
			AddEntries(got, e16, ids)
			if !slices.Equal(got.regs, want.regs) {
				t.Fatalf("m %d: uint16 entries fold to other registers than AddID", m)
			}
		}
		got.Reset()
		for i := range ids {
			got.AddID(uint64(i))
		}
		if !slices.Equal(got.regs, want.regs) {
			t.Fatalf("m %d: AddID folds to other registers than the branching Add", m)
		}
	}
}

// linearCount is the small-range estimate m·ln(m/V) on V empty
// registers (+Inf when none is empty).
func linearCount(s *Sketch) float64 {
	_, zeros := s.raw()
	m := float64(len(s.regs))
	return m * math.Log(m/float64(zeros))
}

// prefixBound is a lower bound on the Estimate of every sketch that is
// register-wise ≥ s: the raw estimate when s is in the raw regime (raw
// above 2.5·m, or no empty register), else the smaller of the raw and
// linear-counting estimates. A larger sketch's raw estimate is at least
// s's, so it stays in the raw regime; and whichever branch it takes, its
// estimate is at least the same branch's value on s.
func prefixBound(s *Sketch) float64 {
	e, zeros := s.raw()
	if e > 2.5*float64(len(s.regs)) || zeros == 0 {
		return e
	}
	return min(e, linearCount(s))
}

// dominatingPairs yields sketch pairs a ≤ b register-wise at every m from
// 16 to 1024: a from a random number of ids (both estimator regimes) and
// b from a with more ids added, then a and b from random registers with
// b raised by a random amount on a random subset.
func dominatingPairs(yield func(a, b *Sketch)) {
	r := rng.New(51)
	for m := MinM; m <= 1024; m *= 2 {
		for range 200 {
			a := New(m)
			for range r.Intn(6 * m) {
				a.AddID(r.Uint64())
			}
			b := a.Clone()
			for range r.Intn(3 * m) {
				b.AddID(r.Uint64())
			}
			yield(a, b)

			a, b = New(m), New(m)
			for i := range a.regs {
				if r.Intn(3) == 0 {
					a.regs[i] = uint8(r.Intn(8))
				}
				b.regs[i] = a.regs[i]
				if r.Intn(4) == 0 {
					b.regs[i] = min(64, a.regs[i]+uint8(1+r.Intn(4)))
				}
			}
			yield(a, b)
		}
	}
}

// TestRawAndLinearCountingMonotone holds the two estimators Estimate
// switches between to monotonicity under a register-wise ≤: a sketch
// that dominates another never has a lower raw estimate, a lower
// linear-counting estimate or more empty registers.
func TestRawAndLinearCountingMonotone(t *testing.T) {
	dominatingPairs(func(a, b *Sketch) {
		ea, za := a.raw()
		eb, zb := b.raw()
		if eb < ea || zb > za {
			t.Fatalf("m = %d: raw %v, %d empty below raw %v, %d empty of a dominated sketch", len(a.regs), eb, zb, ea, za)
		}
		if la, lb := linearCount(a), linearCount(b); lb < la {
			t.Fatalf("m = %d: linear counting %v below %v of a dominated sketch", len(a.regs), lb, la)
		}
	})
}

// TestEstimateNotMonotone pins the counterexample that rules out reading
// a prefix's Estimate as a lower bound on the full merge's: at m = 128,
// one empty register among 127 ones is in the linear-counting regime and
// reads 128·ln 128 ≈ 621.1, while the all-ones sketch above it has no
// empty register and reads its raw estimate, ≈ 183.1.
func TestEstimateNotMonotone(t *testing.T) {
	a, b := New(128), New(128)
	for i := range b.regs {
		a.regs[i], b.regs[i] = 1, 1
	}
	a.regs[0] = 0
	ea, eb := a.Estimate(), b.Estimate()
	if math.Abs(ea-621.1) > 0.05 || math.Abs(eb-183.1) > 0.05 {
		t.Fatalf("Estimate = %.2f and %.2f, want 621.1 and 183.1", ea, eb)
	}
	if pb := prefixBound(a); pb > eb {
		t.Fatalf("prefixBound %v above the dominating sketch's estimate %v", pb, eb)
	}
}

// TestPrefixBoundBelowEstimate is the early exit's proof obligation as a
// property: a sketch's prefixBound never exceeds the Estimate of a
// sketch that dominates it, and in the raw regime it is its own
// Estimate.
func TestPrefixBoundBelowEstimate(t *testing.T) {
	switched, inverted := 0, 0
	regime := func(s *Sketch) bool { e, zeros := s.raw(); return e > 2.5*float64(len(s.regs)) || zeros == 0 }
	dominatingPairs(func(a, b *Sketch) {
		if !regime(a) && regime(b) {
			switched++
			if a.Estimate() > b.Estimate() {
				inverted++
			}
		}
		if pb, eb := prefixBound(a), b.Estimate(); pb > eb {
			t.Fatalf("m = %d: prefixBound %v above the dominating sketch's estimate %v", len(a.regs), pb, eb)
		}
		if e, zeros := a.raw(); e > 2.5*float64(len(a.regs)) || zeros == 0 {
			if pb, ea := prefixBound(a), a.Estimate(); pb != ea {
				t.Fatalf("m = %d: raw-regime prefixBound %v, Estimate %v", len(a.regs), pb, ea)
			}
		}
	})
	t.Logf("%d pairs cross the switch to the raw estimate, %d of them with a falling Estimate", switched, inverted)
	if switched == 0 || inverted == 0 {
		t.Fatal("no pair crosses the switch with a falling Estimate: the property is not exercised")
	}
}
