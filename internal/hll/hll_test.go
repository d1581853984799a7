package hll

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

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
		if s.M() != m {
			t.Errorf("New(%d).M() = %d", m, s.M())
		}
	}
}

func TestEmptyEstimateIsZero(t *testing.T) {
	s := New(128)
	if !s.Empty() {
		t.Fatal("fresh sketch not Empty")
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
	if !s.Empty() || s.Estimate() != 0 {
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

func TestStdError(t *testing.T) {
	if got := New(128).StdError(); math.Abs(got-1.04/math.Sqrt(128)) > 1e-12 {
		t.Fatalf("StdError = %v", got)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(128).SizeBytes(); got != 128 {
		t.Fatalf("SizeBytes = %d, want 128", got)
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
