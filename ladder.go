package hybridlsh

import (
	"fmt"
	"sort"
)

// A hybrid index answers rNNR for the one radius it was built with — the
// p-stable slot width and the solved k both depend on r (Section 2 of the
// paper). Ladder serves *arbitrary* radii in a range by the standard
// geometric-ladder reduction: build one index per radius on the grid
// rmin·c^i, route a query of radius r to the smallest grid radius ≥ r, and
// filter the (superset) result down to r exactly. Every guarantee carries
// over: each true r-near neighbor is within the grid radius too, so it is
// reported with probability ≥ 1−δ, and the distance filter removes nothing
// within r.
type Ladder[P any] struct {
	radii   []float64
	indexes []*Index[P]
}

// NewLadder builds a ladder of indexes under m over points, covering
// query radii in [rmin, rmax] with grid ratio c. Every rung is built as
// New builds it, with the same options (so each keeps the metric's
// per-radius defaults, such as L2's w = 2r).
func NewLadder[P any](m Metric[P], points []P, rmin, rmax, c float64, opts ...Option) (*Ladder[P], error) {
	return LadderOf(rmin, rmax, c, func(r float64) (*Index[P], error) {
		return New(m, points, r, opts...)
	})
}

// LadderOf builds a radius ladder from rmin to at least rmax with ratio c
// (c > 1; the number of rungs is ⌈log_c(rmax/rmin)⌉ + 1); build
// constructs the index of one grid radius. NewLadder is LadderOf over
// New.
func LadderOf[P any](rmin, rmax, c float64, build func(r float64) (*Index[P], error)) (*Ladder[P], error) {
	if rmin <= 0 || rmax < rmin {
		return nil, fmt.Errorf("hybridlsh: ladder range [%v, %v] invalid", rmin, rmax)
	}
	if c <= 1 {
		return nil, fmt.Errorf("hybridlsh: ladder ratio c = %v, want > 1", c)
	}
	l := &Ladder[P]{}
	for r := rmin; ; r *= c {
		ix, err := build(r)
		if err != nil {
			return nil, fmt.Errorf("hybridlsh: ladder rung r=%v: %w", r, err)
		}
		l.radii = append(l.radii, r)
		l.indexes = append(l.indexes, ix)
		if r >= rmax {
			break
		}
		if len(l.radii) > 64 {
			return nil, fmt.Errorf("hybridlsh: ladder would exceed 64 rungs; raise c")
		}
	}
	return l, nil
}

// Rungs returns the grid radii the ladder holds indexes for.
func (l *Ladder[P]) Rungs() []float64 {
	return append([]float64(nil), l.radii...)
}

// Query reports every point within radius r of q, for any r in
// (0, maxRung]. It routes to the smallest rung ≥ r and filters exactly.
func (l *Ladder[P]) Query(q P, r float64) ([]int32, QueryStats, error) {
	if r <= 0 {
		return nil, QueryStats{}, fmt.Errorf("hybridlsh: ladder query radius %v, want > 0", r)
	}
	i := sort.SearchFloat64s(l.radii, r)
	if i == len(l.radii) {
		// Allow tiny float overshoot of the top rung.
		if r <= l.radii[len(l.radii)-1]*(1+1e-12) {
			i = len(l.radii) - 1
		} else {
			return nil, QueryStats{}, fmt.Errorf("hybridlsh: ladder query radius %v exceeds top rung %v", r, l.radii[len(l.radii)-1])
		}
	}
	ix := l.indexes[i]
	ids, stats := ix.Query(q)
	if l.radii[i] == r {
		return ids, stats, nil
	}
	kept := ids[:0]
	for _, id := range ids {
		if ix.DistanceTo(id, q) <= r {
			kept = append(kept, id)
		}
	}
	stats.Results = len(kept)
	return kept, stats, nil
}
