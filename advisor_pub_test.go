package hybridlsh

import (
	"math"
	"testing"
)

func TestP1Helpers(t *testing.T) {
	if got := P1Hamming(64, 16); got != 0.75 {
		t.Errorf("P1Hamming = %v, want 0.75", got)
	}
	if got := P1Jaccard(0.3); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("P1Jaccard = %v, want 0.7", got)
	}
	if got := P1Cosine(0); got != 1 {
		t.Errorf("P1Cosine(0) = %v, want 1", got)
	}
	if got := P1L2(2, 1); got <= 0 || got >= 1 {
		t.Errorf("P1L2 = %v, want in (0,1)", got)
	}
	if got := P1L1(4, 1); got <= 0 || got >= 1 {
		t.Errorf("P1L1 = %v, want in (0,1)", got)
	}
}

func TestAdvisePublicEndToEnd(t *testing.T) {
	best, ranked, err := Advise(AdvisorInput{
		N:           50000,
		P1:          P1Hamming(64, 8),
		PBackground: P1Hamming(64, 28),
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.K < 1 || best.L < 1 || len(ranked) == 0 {
		t.Fatalf("bad advice: %+v", best)
	}
	// Use the advice to actually build an index.
	pts := make([]Binary, 200)
	for i := range pts {
		pts[i] = NewBinaryVector(64)
		pts[i].SetBit(i%64, true)
	}
	ix, err := New(Hamming, pts, 8, WithK(best.K), WithTables(best.L), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != best.K || ix.L() != best.L {
		t.Fatal("advice not applied")
	}
}
