package lsh

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/hll"
	"repro/internal/rng"
)

// Bucket is one hash-table bucket: the ids of the points hashed into it
// and, if the bucket is at least Params.HLLThreshold points large, a
// pre-built HyperLogLog over those ids (Algorithm 1 of the paper).
//
// Small buckets carry no sketch — the paper's space-saving trick (§3.2):
// their few ids are folded into the query-time merged sketch directly,
// which costs the same O(1) per id as a sketch update would have at build
// time.
type Bucket struct {
	IDs    []int32
	Sketch *hll.Sketch
}

// Params configures table construction.
type Params struct {
	// K is the number of concatenated base functions per table (use SolveK
	// for the paper's setting).
	K int
	// L is the number of hash tables. The paper fixes L = 50.
	L int
	// HLLRegisters is m, the register count per bucket sketch; the paper
	// uses 32–128. Must be a power of two in [hll.MinM, hll.MaxM].
	HLLRegisters int
	// HLLThreshold is the minimum bucket size that gets a pre-built
	// sketch. Zero means HLLRegisters (the paper's "#points < m" rule).
	HLLThreshold int
	// Seed makes construction deterministic.
	Seed uint64
}

func (p Params) withDefaults() Params {
	if p.HLLThreshold == 0 {
		p.HLLThreshold = p.HLLRegisters
	}
	return p
}

func (p Params) validate() error {
	if p.K < 1 {
		return fmt.Errorf("lsh: Params.K = %d, want >= 1", p.K)
	}
	if p.L < 1 {
		return fmt.Errorf("lsh: Params.L = %d, want >= 1", p.L)
	}
	if m := p.HLLRegisters; m < hll.MinM || m > hll.MaxM || m&(m-1) != 0 {
		return fmt.Errorf("lsh: Params.HLLRegisters = %d, want a power of two in [%d, %d]",
			p.HLLRegisters, hll.MinM, hll.MaxM)
	}
	if p.HLLThreshold < 0 {
		return fmt.Errorf("lsh: Params.HLLThreshold = %d, want >= 0", p.HLLThreshold)
	}
	return nil
}

// Table is one of the L hash tables.
type Table[P any] struct {
	Hasher  Hasher[P]
	Buckets map[uint64]*Bucket
}

// Tables is the paper's Algorithm-1 data structure: L hash tables whose
// buckets carry HyperLogLog sketches. It is immutable and safe for
// concurrent readers after Build returns.
type Tables[P any] struct {
	params Params
	tables []Table[P]
	n      int
}

// Build hashes every point into L tables and attaches sketches to large
// buckets. Construction parallelizes across tables. It returns an error on
// invalid parameters.
func Build[P any](points []P, fam Family[P], p Params) (*Tables[P], error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("lsh: Build on empty point set")
	}
	if len(points) > 1<<31-1 {
		return nil, fmt.Errorf("lsh: Build on %d points exceeds int32 id space", len(points))
	}

	t := &Tables[P]{params: p, tables: make([]Table[P], p.L), n: len(points)}
	seeder := rng.New(p.Seed)
	seeds := make([]uint64, p.L)
	for j := range seeds {
		seeds[j] = seeder.Uint64()
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > p.L {
		workers = p.L
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				t.tables[j] = buildOne(points, fam, p, seeds[j])
			}
		}()
	}
	for j := 0; j < p.L; j++ {
		next <- j
	}
	close(next)
	wg.Wait()
	return t, nil
}

func buildOne[P any](points []P, fam Family[P], p Params, seed uint64) Table[P] {
	hasher := fam.NewHasher(p.K, rng.New(seed))
	buckets := make(map[uint64]*Bucket)
	for i, pt := range points {
		key := hasher.Key(pt)
		b := buckets[key]
		if b == nil {
			b = &Bucket{}
			buckets[key] = b
		}
		b.IDs = append(b.IDs, int32(i))
	}
	for _, b := range buckets {
		if len(b.IDs) >= p.HLLThreshold {
			s := hll.New(p.HLLRegisters)
			for _, id := range b.IDs {
				s.AddID(uint64(id))
			}
			b.Sketch = s
		}
	}
	return Table[P]{Hasher: hasher, Buckets: buckets}
}

// RestoreTables reassembles a Tables from decoded parts (e.g. a
// persisted snapshot): the construction parameters, the L tables with
// their hashers and buckets, and the indexed point count n. Unlike
// Build, n may be 0 (a fully compacted shard); the tables slice is
// referenced, not copied. Callers are responsible for bucket ids lying
// in [0, n) and sketches matching HLLRegisters — persist validates both
// while decoding.
func RestoreTables[P any](p Params, tables []Table[P], n int) (*Tables[P], error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(tables) != p.L {
		return nil, fmt.Errorf("lsh: RestoreTables with %d tables, Params.L = %d", len(tables), p.L)
	}
	if n < 0 || n > 1<<31-1 {
		return nil, fmt.Errorf("lsh: RestoreTables with n = %d, want in [0, 2^31)", n)
	}
	for j := range tables {
		if tables[j].Hasher == nil {
			return nil, fmt.Errorf("lsh: RestoreTables table %d has no hasher", j)
		}
		if tables[j].Hasher.K() != p.K {
			return nil, fmt.Errorf("lsh: RestoreTables table %d hasher has k = %d, Params.K = %d", j, tables[j].Hasher.K(), p.K)
		}
		if tables[j].Buckets == nil {
			tables[j].Buckets = make(map[uint64]*Bucket)
		}
	}
	return &Tables[P]{params: p, tables: tables, n: n}, nil
}

// Append hashes additional points into every table, assigning them ids
// starting at the current N, and maintains the per-bucket sketches: ids
// are folded into existing sketches, and buckets that cross the threshold
// get one built (Algorithm 1 is fully incremental — HLLs only ever absorb
// insertions). Append must not run concurrently with Lookup or
// EstimateCandidates; the caller synchronizes index mutation.
func (t *Tables[P]) Append(points []P) error {
	if len(points) == 0 {
		return nil
	}
	if t.n+len(points) > 1<<31-1 {
		return fmt.Errorf("lsh: Append would exceed int32 id space")
	}
	for j := range t.tables {
		tab := &t.tables[j]
		for i, pt := range points {
			id := int32(t.n + i)
			key := tab.Hasher.Key(pt)
			b := tab.Buckets[key]
			if b == nil {
				b = &Bucket{}
				tab.Buckets[key] = b
			}
			b.IDs = append(b.IDs, id)
			switch {
			case b.Sketch != nil:
				b.Sketch.AddID(uint64(id))
			case len(b.IDs) >= t.params.HLLThreshold:
				s := hll.New(t.params.HLLRegisters)
				for _, existing := range b.IDs {
					s.AddID(uint64(existing))
				}
				b.Sketch = s
			}
		}
	}
	t.n += len(points)
	return nil
}

// Compact rewrites the tables without the dropped points: remap[old] is
// the new id of surviving point old, or -1 for a dropped point, and live
// is the survivor count (the number of non-negative remap entries, which
// must form exactly 0..live-1). It returns a new Tables sharing the drawn
// hash functions — survivors land in the same buckets under the same
// keys, so answers over the compacted tables are the original answers
// minus the dropped points, with no re-hashing of surviving points.
// Bucket id lists are rewritten, empty buckets are removed, and
// per-bucket sketches are rebuilt from the surviving ids under the usual
// size threshold (HLLs cannot un-absorb a deletion, so rebuilding is the
// only sound way to forget). The receiver is not modified and remains
// valid; callers swap the result in under their own synchronization.
//
// persist uses the same rewrite when it compacts tombstoned points out of
// a snapshot, so online compaction and snapshot compaction produce
// identical bucket and sketch state for the same survivor set.
func (t *Tables[P]) Compact(remap []int32, live int) (*Tables[P], error) {
	if len(remap) != t.n {
		return nil, fmt.Errorf("lsh: Compact with %d remap entries for %d points", len(remap), t.n)
	}
	if live < 0 || live > t.n {
		return nil, fmt.Errorf("lsh: Compact with live = %d, want in [0, %d]", live, t.n)
	}
	survivors := 0
	last := int32(-1)
	for old, nid := range remap {
		if nid < -1 || int(nid) >= live {
			return nil, fmt.Errorf("lsh: Compact remap[%d] = %d outside [-1, %d)", old, nid, live)
		}
		if nid >= 0 {
			// Rank renumbering means the non-negative entries are exactly
			// 0..live-1 in order; anything else (duplicates, gaps,
			// reordering) would silently corrupt the rewritten buckets.
			if nid <= last {
				return nil, fmt.Errorf("lsh: Compact remap[%d] = %d is not rank renumbering (previous survivor id %d)", old, nid, last)
			}
			last = nid
			survivors++
		}
	}
	if survivors != live {
		return nil, fmt.Errorf("lsh: Compact remap has %d survivors, live = %d", survivors, live)
	}

	nt := &Tables[P]{params: t.params, tables: make([]Table[P], len(t.tables)), n: live}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(t.tables) {
		workers = len(t.tables)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				nt.tables[j] = Table[P]{
					Hasher:  t.tables[j].Hasher,
					Buckets: compactBuckets(t.tables[j].Buckets, remap, t.params),
				}
			}
		}()
	}
	for j := range t.tables {
		next <- j
	}
	close(next)
	wg.Wait()
	return nt, nil
}

// compactBuckets rewrites one table's bucket map through remap: surviving
// ids are renumbered, emptied buckets vanish, and sketches are rebuilt
// over the survivors when the bucket still meets the threshold.
func compactBuckets(src map[uint64]*Bucket, remap []int32, p Params) map[uint64]*Bucket {
	dst := make(map[uint64]*Bucket, len(src))
	for key, b := range src {
		kept := make([]int32, 0, len(b.IDs))
		for _, id := range b.IDs {
			if nid := remap[id]; nid >= 0 {
				kept = append(kept, nid)
			}
		}
		if len(kept) == 0 {
			continue
		}
		nb := &Bucket{IDs: kept}
		if len(kept) >= p.HLLThreshold {
			s := hll.New(p.HLLRegisters)
			for _, id := range kept {
				s.AddID(uint64(id))
			}
			nb.Sketch = s
		}
		dst[key] = nb
	}
	return dst
}

// N returns the number of indexed points.
func (t *Tables[P]) N() int { return t.n }

// Params returns the construction parameters (with defaults applied).
func (t *Tables[P]) Params() Params { return t.params }

// L returns the number of tables.
func (t *Tables[P]) L() int { return len(t.tables) }

// Table returns table j; it exists for the probing extensions.
func (t *Tables[P]) Table(j int) *Table[P] { return &t.tables[j] }

// Lookup returns the buckets of q in all L tables; tables where q's bucket
// is empty contribute nothing, so the result may be shorter than L.
func (t *Tables[P]) Lookup(q P) []*Bucket {
	return t.LookupInto(q, nil)
}

// LookupInto is Lookup reusing buf's backing array (buf may be nil). It
// exists so query loops can thread a pooled scratch slice through and stay
// allocation-free in steady state; the result aliases buf and must not be
// retained once buf is recycled.
func (t *Tables[P]) LookupInto(q P, buf []*Bucket) []*Bucket {
	bs := buf[:0]
	if cap(bs) == 0 {
		bs = make([]*Bucket, 0, len(t.tables))
	}
	for i := range t.tables {
		if b := t.tables[i].Buckets[t.tables[i].Hasher.Key(q)]; b != nil {
			bs = append(bs, b)
		}
	}
	return bs
}

// Collisions returns Σ|bucket| over bs — the paper's #collisions term,
// available exactly from the stored bucket sizes (step 1 of Algorithm 2).
func Collisions(bs []*Bucket) int {
	n := 0
	for _, b := range bs {
		n += len(b.IDs)
	}
	return n
}

// EstimateCandidates merges the sketches of bs into scratch (which it
// resets first) and returns the estimated number of distinct ids — the
// candSize term of Equation (1), step 2 of Algorithm 2. Buckets below the
// HLL threshold are folded in id-by-id, implementing the paper's on-demand
// trick. scratch must have the buckets' register count.
func EstimateCandidates(bs []*Bucket, scratch *hll.Sketch) float64 {
	scratch.Reset()
	for _, b := range bs {
		if b.Sketch != nil {
			scratch.Merge(b.Sketch)
		} else {
			for _, id := range b.IDs {
				scratch.AddID(uint64(id))
			}
		}
	}
	return scratch.Estimate()
}

// EstimateCandidates is the package-level EstimateCandidates over this
// structure's sketch geometry; pass a nil scratch to allocate one.
func (t *Tables[P]) EstimateCandidates(bs []*Bucket, scratch *hll.Sketch) float64 {
	if scratch == nil {
		scratch = hll.New(t.params.HLLRegisters)
	}
	return EstimateCandidates(bs, scratch)
}

// Stats summarizes the built structure.
type Stats struct {
	Tables          int
	Points          int
	Buckets         int     // total buckets across tables
	SketchedBuckets int     // buckets carrying a pre-built HLL
	SketchBytes     int     // total HLL register memory
	MaxBucket       int     // largest bucket size
	AvgBucket       float64 // mean bucket size
}

// Stats scans the structure and reports size statistics; it is used by the
// space-overhead experiments.
func (t *Tables[P]) Stats() Stats {
	s := Stats{Tables: len(t.tables), Points: t.n}
	total := 0
	for i := range t.tables {
		for _, b := range t.tables[i].Buckets {
			s.Buckets++
			total += len(b.IDs)
			if len(b.IDs) > s.MaxBucket {
				s.MaxBucket = len(b.IDs)
			}
			if b.Sketch != nil {
				s.SketchedBuckets++
				s.SketchBytes += b.Sketch.SizeBytes()
			}
		}
	}
	if s.Buckets > 0 {
		s.AvgBucket = float64(total) / float64(s.Buckets)
	}
	return s
}
