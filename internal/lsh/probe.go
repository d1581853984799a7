package lsh

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/vector"
)

// Query-directed multi-probe LSH (Lv, Josephson, Wang, Charikar, Li —
// VLDB 2007) for the p-stable families. Besides the query's home bucket
// a table is probed at the T neighboring buckets most likely to hold near
// points: perturbing slot index i by δ ∈ {−1, +1} costs the squared
// distance from the query's projection to that slot boundary, and
// perturbation sets are enumerated in increasing total cost with the
// standard shift/expand heap. Probing is a lookup strategy over the same
// tables, not a different structure: the buckets, sketches and hashers
// are exactly the classic ones.

// Prober is a Hasher that can also enumerate a query's probing sequence.
// PStableHasher is the one implementation.
type Prober[P any] interface {
	Hasher[P]
	// ProbeKeys appends to dst the bucket keys probed for q: the home
	// key first, then up to t perturbed keys in increasing estimated
	// cost.
	ProbeKeys(q P, t int, dst []uint64) []uint64
}

// CanProbe returns an error unless every table's hasher is a Prober —
// the requirement of ProbeInto.
func (t *Tables[P]) CanProbe() error {
	for j := range t.tables {
		if _, ok := t.tables[j].hasher.(Prober[P]); !ok {
			return fmt.Errorf("lsh: table %d hasher is %T, which cannot probe", j, t.tables[j].hasher)
		}
	}
	return nil
}

// ProbeInto is the multi-probe LookupInto: the home bucket plus up to
// probes perturbed buckets of q in every table, table by table and in
// probing order within a table. Like LookupInto it computes every
// table's probe keys before it probes. Every hasher must be a Prober
// (CanProbe).
func (t *Tables[P]) ProbeInto(q P, probes int, s *Scratch) []Bucket {
	s.keys, s.ends = s.keys[:0], s.ends[:0]
	hashEvals.Add(uint64(len(t.tables)))
	for i := range t.tables {
		s.keys = t.tables[i].hasher.(Prober[P]).ProbeKeys(q, probes, s.keys)
		s.ends = append(s.ends, len(s.keys))
	}
	return t.probe(s)
}

// perturbation is one (function index, δ) pair with its cost: the squared
// distance from the query's projection to the slot boundary crossed.
type perturbation struct {
	fn    int
	delta int64
	cost  float64
}

// probeSet is a set of sorted-perturbation indices with its total cost;
// the heap orders sets by cost.
type probeSet struct {
	idx  []int // indices into the sorted perturbation array, ascending
	cost float64
}

type setHeap []probeSet

func (h setHeap) Len() int           { return len(h) }
func (h setHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h setHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *setHeap) Push(x any)        { *h = append(*h, x.(probeSet)) }
func (h *setHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// ProbeKeys implements Prober: the home key, then up to t perturbed keys
// generated with the shift/expand enumeration over the 2k single
// perturbations.
func (h *PStableHasher) ProbeKeys(q vector.Dense, t int, dst []uint64) []uint64 {
	parts, resid := h.PartsAndResiduals(q)
	keys := append(dst, KeyFromParts(parts))
	if t == 0 {
		return keys
	}
	home := len(keys) - 1

	k := len(parts)
	perts := make([]perturbation, 0, 2*k)
	for i := 0; i < k; i++ {
		// δ = −1 crosses the lower boundary (distance resid·w), δ = +1
		// the upper one (distance (1−resid)·w).
		lo := resid[i] * h.w
		hi := (1 - resid[i]) * h.w
		perts = append(perts,
			perturbation{fn: i, delta: -1, cost: lo * lo},
			perturbation{fn: i, delta: +1, cost: hi * hi},
		)
	}
	sort.Slice(perts, func(a, b int) bool { return perts[a].cost < perts[b].cost })

	var hp setHeap
	heap.Push(&hp, probeSet{idx: []int{0}, cost: perts[0].cost})
	scratch := make([]int64, k)
	for len(keys) < home+t+1 && hp.Len() > 0 {
		s := heap.Pop(&hp).(probeSet)
		top := s.idx[len(s.idx)-1]
		// Shift: replace the maximum element with its successor.
		if top+1 < len(perts) {
			shift := append(append([]int(nil), s.idx[:len(s.idx)-1]...), top+1)
			heap.Push(&hp, probeSet{idx: shift, cost: s.cost - perts[top].cost + perts[top+1].cost})
			// Expand: add the successor on top.
			expand := append(append([]int(nil), s.idx...), top+1)
			heap.Push(&hp, probeSet{idx: expand, cost: s.cost + perts[top+1].cost})
		}
		if !validSet(s.idx, perts) {
			continue
		}
		copy(scratch, parts)
		for _, pi := range s.idx {
			scratch[perts[pi].fn] += perts[pi].delta
		}
		keys = append(keys, KeyFromParts(scratch))
	}
	return keys
}

// validSet rejects sets that perturb the same function twice (the two
// directions of one h_i are mutually exclusive).
func validSet(idx []int, perts []perturbation) bool {
	var seen [64]bool // k ≤ 64 in every regime multi-probe is used in
	for _, pi := range idx {
		fn := perts[pi].fn
		if fn < 64 {
			if seen[fn] {
				return false
			}
			seen[fn] = true
		} else {
			for _, pj := range idx {
				if pj != pi && perts[pj].fn == perts[pi].fn {
					return false
				}
			}
		}
	}
	return true
}
