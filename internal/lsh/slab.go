package lsh

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/hashutil"
	"repro/internal/hll"
)

// A Slab is one table's frozen buckets in a handful of flat arrays, with
// no heap object per bucket (the paper's §3.2 point: per-bucket overhead
// is the index's space cost):
//
//   - heads holds one (key, offset, sketch ordinal) triple per bucket,
//     in ascending order of Mix64(key) — a bijection, so no two keys tie
//     — plus a closing head whose offset is the id count. dir groups the
//     buckets by the top bits of that hash: slot s holds
//     heads[dir[s]:dir[s+1]], two to four buckets on average, so a
//     lookup reads one dir entry and one short run of heads, and a hit
//     finds its id span and sketch on the line it matched the key on.
//   - narrow or wide is every bucket's id list back to back, each
//     ascending as its ids were inserted: bucket i holds
//     ids[heads[i].off:heads[i+1].off]. The width is decided once, when
//     the slab is built, from the table's id bound n: a slab whose ids
//     all lie below narrowBound stores them as uint16 (narrow, the other
//     nil), any other slab as int32 (wide). The L·n stored ids are most
//     of an index's bytes, so a shard of at most 65 536 points holds
//     them in half the space.
//   - regs is the register slab of the sketched buckets: bucket i's
//     registers are regs[o·m:(o+1)·m] for o = heads[i].sketch, or none
//     when o is noSketch.
//
// A Slab is never written after it is built, so readers keep using it
// while a writer builds its successor.
type Slab struct {
	heads  []head
	dir    []uint32
	shift  uint8
	narrow []uint16
	wide   []int32
	regs   []uint8
	m      int
}

type head struct {
	key         uint64
	off, sketch uint32
}

// ID is the type of a slab's stored ids, narrow or wide.
type ID interface{ uint16 | int32 }

// narrowBound is the largest id bound n whose slabs store their ids as
// uint16: every id of such a table lies in [0, 65 536).
const narrowBound = 1 << 16

// forceWide makes every slab wide whatever its n. It is the tests' seam
// for building one point set at both widths.
var forceWide bool

// narrowFor reports whether a slab over ids in [0, n) stores them narrow.
func narrowFor(n int) bool { return n <= narrowBound && !forceWide }

// noSketch is the sketch ordinal of a bucket that carries no sketch.
const noSketch = math.MaxUint32

// len returns the number of buckets.
func (s *Slab) len() int { return len(s.heads) - 1 }

// nids returns the number of stored ids.
func (s *Slab) nids() int { return len(s.narrow) + len(s.wide) }

// find returns the index of key's bucket, or -1 when there is none.
func (s *Slab) find(key uint64) int { return s.scan(key, s.run(key)) }

// run is the span of heads key's bucket would lie in: its directory
// slot's run, the first of the two reads a lookup makes.
func (s *Slab) run(key uint64) span {
	slot := hashutil.Mix64(key) >> s.shift
	return span{s.dir[slot], s.dir[slot+1]}
}

// span is a half-open range [lo, hi) of heads.
type span struct{ lo, hi uint32 }

// scan returns the index of key's bucket within r, its run, or -1.
func (s *Slab) scan(key uint64, r span) int {
	for i := r.lo; i < r.hi; i++ {
		if s.heads[i].key == key {
			return int(i)
		}
	}
	return -1
}

// bucket returns a read-only view of bucket i, in the slab's width.
func (s *Slab) bucket(i int) Bucket {
	h, hi := s.heads[i], s.heads[i+1].off
	var b Bucket
	if s.narrow != nil {
		b.narrow = s.narrow[h.off:hi:hi]
	} else {
		b.IDs = s.wide[h.off:hi:hi]
	}
	if h.sketch != noSketch {
		at := int(h.sketch) * s.m
		b.Sketch = s.regs[at : at+s.m : at+s.m]
	}
	return b
}

// A SlabBuilder collects one table's buckets and freezes them into a
// Slab. A snapshot decoder adds buckets in any key order (Add, Sketch)
// and calls Freeze; Build and Compact add them in hash order, sized up
// front so every array is allocated once at its final length (add,
// finish).
type SlabBuilder struct{ s Slab }

// NewSlabBuilder returns a builder for m-register sketches over ids in
// [0, n), which picks the slab's id width, sized for the given bucket
// and id counts (hints; either may be exceeded).
func NewSlabBuilder(m, n, buckets, ids int) *SlabBuilder {
	return newSlabBuilder(m, narrowFor(n), buckets, ids, 0)
}

func newSlabBuilder(m int, narrow bool, buckets, ids, sketches int) *SlabBuilder {
	b := &SlabBuilder{Slab{
		heads: make([]head, 0, buckets+1),
		regs:  make([]uint8, 0, sketches*m),
		m:     m,
	}}
	if narrow {
		b.s.narrow = make([]uint16, 0, ids)
	} else {
		b.s.wide = make([]int32, 0, ids)
	}
	return b
}

// Add starts a bucket under key with n ids and returns the slice the
// caller fills them into, before its next call on the builder: narrow
// when the slab stores uint16 ids, wide otherwise; the other is nil. The
// caller must keep every id below the builder's n.
func (b *SlabBuilder) Add(key uint64, n int) (narrow []uint16, wide []int32) {
	at := b.s.nids()
	b.s.heads = append(b.s.heads, head{key, uint32(at), noSketch})
	if b.s.narrow != nil {
		b.s.narrow = slices.Grow(b.s.narrow, n)[:at+n]
		return b.s.narrow[at:], nil
	}
	b.s.wide = slices.Grow(b.s.wide, n)[:at+n]
	return nil, b.s.wide[at:]
}

// Sketch gives the bucket Add just started a sketch with the registers
// regs (copied). It fails on a register count other than m or a rank
// above 64.
func (b *SlabBuilder) Sketch(regs []uint8) error {
	if len(regs) != b.s.m {
		return fmt.Errorf("lsh: %d sketch registers, want %d", len(regs), b.s.m)
	}
	if err := hll.CheckRegisters(regs); err != nil {
		return err
	}
	b.sketch(regs)
	return nil
}

func (b *SlabBuilder) sketch(regs []uint8) {
	b.s.heads[len(b.s.heads)-1].sketch = uint32(len(b.s.regs) / b.s.m)
	b.s.regs = append(b.s.regs, regs...)
}

// addIDs appends a bucket under key with ids, converted to the slab's
// width (they must fit it), and, unless regs is nil, its sketch.
func addIDs[S ID](b *SlabBuilder, key uint64, ids []S, regs []uint8) {
	b.s.heads = append(b.s.heads, head{key, uint32(b.s.nids()), noSketch})
	if b.s.narrow != nil {
		b.s.narrow = appendAs(b.s.narrow, ids)
	} else {
		b.s.wide = appendAs(b.s.wide, ids)
	}
	if regs != nil {
		b.sketch(regs)
	}
}

// appendAs appends src to dst, each id converted to dst's width.
func appendAs[D, S ID](dst []D, src []S) []D {
	for _, id := range src {
		dst = append(dst, D(id))
	}
	return dst
}

// Freeze orders the buckets for lookup and returns the slab. It fails
// when a key repeats or the ids overflow the slab's 32-bit offsets.
func (b *SlabBuilder) Freeze() (*Slab, error) {
	in, nb := b.s, len(b.s.heads)
	if uint64(in.nids()) > math.MaxUint32 {
		return nil, fmt.Errorf("lsh: %d bucket ids exceed a table's 32-bit offsets", in.nids())
	}
	in.heads = append(in.heads, head{off: uint32(in.nids())}) // closes the last span
	perm := hashOrder(nb, func(i int) uint64 { return in.heads[i].key })
	out := newSlabBuilder(in.m, in.narrow != nil, nb, in.nids(), len(in.regs)/in.m)
	for k, i := range perm {
		h, end := in.heads[i], in.heads[i+1].off
		if k > 0 && h.key == in.heads[perm[k-1]].key {
			return nil, fmt.Errorf("lsh: duplicate bucket key %#x", h.key)
		}
		var regs []uint8
		if h.sketch != noSketch {
			regs = in.regs[int(h.sketch)*in.m : int(h.sketch+1)*in.m]
		}
		if in.narrow != nil {
			addIDs(out, h.key, in.narrow[h.off:end], regs)
		} else {
			addIDs(out, h.key, in.wide[h.off:end], regs)
		}
	}
	s := out.finish()
	return &s, nil
}

// finish closes the last bucket and builds the directory; the buckets
// must have come in ascending order of Mix64(key).
func (b *SlabBuilder) finish() Slab {
	s := b.s
	s.heads = append(s.heads, head{off: uint32(s.nids())})
	slots := max(bits.Len(uint(s.len()))-2, 0) // 2^slots slots: 2–4 buckets per slot
	s.shift = uint8(64 - slots)
	s.dir = make([]uint32, 1<<slots+1)
	for _, h := range s.heads[:s.len()] {
		s.dir[hashutil.Mix64(h.key)>>s.shift+1]++
	}
	for i := 1; i < len(s.dir); i++ {
		s.dir[i] += s.dir[i-1]
	}
	return s
}

// emptySlab is a slab with no buckets.
func emptySlab(m int) Slab { return newSlabBuilder(m, true, 0, 0, 0).finish() }

// hashBufs keeps hashOrder's hash arrays between calls, so that a
// snapshot load, which orders its tables one after another, allocates no
// hash array per table: that much more garbage moves the loading node's
// GC cycles and raises its peak RSS.
var hashBufs sync.Pool // of *[]uint64

// hashOrder returns 0..n-1 in ascending order of Mix64(key(i)), equal
// keys in index order: each hash is computed once, then the indexes are
// counting-sorted on the hash's top bits and sorted by hash within each
// slot.
func hashOrder(n int, key func(i int) uint64) []int32 {
	b := max(bits.Len(uint(n))-2, 0)
	shift := 64 - b
	buf, _ := hashBufs.Get().(*[]uint64)
	if buf == nil || cap(*buf) < n {
		buf = &[]uint64{}
		*buf = make([]uint64, n)
	}
	defer hashBufs.Put(buf)
	hs := (*buf)[:n]
	next := make([]uint32, 1<<b+1)
	for i := range hs {
		hs[i] = hashutil.Mix64(key(i))
		next[hs[i]>>shift+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	perm := make([]int32, n)
	for i, h := range hs {
		slot := h >> shift
		perm[next[slot]] = int32(i)
		next[slot]++
	}
	// next[s] is now where slot s ends, its indexes ascending.
	byHash := func(x, y int32) int { return cmp.Compare(hs[x], hs[y]) }
	start := uint32(0)
	for _, end := range next[:len(next)-1] {
		if end-start > 1 {
			slices.SortStableFunc(perm[start:end], byHash)
		}
		start = end
	}
	return perm
}

// sketchOf returns the registers of a sketch over ids when the bucket
// is at least the threshold large, and nil otherwise. The result is
// scratch's register array, valid until scratch is next used.
func sketchOf(ids []int32, p Params, scratch *hll.Sketch) []uint8 {
	if len(ids) < p.HLLThreshold {
		return nil
	}
	scratch.Reset()
	for _, id := range ids {
		scratch.AddID(uint64(id))
	}
	return scratch.Registers()
}

// buildSlab hashes every point with h and groups the ids by key. The
// hash order of the point keys is the id slab itself: a stable sort
// leaves each bucket's ids ascending.
func buildSlab[P any](points []P, h Hasher[P], p Params, norms []float64) Slab {
	keys := make([]uint64, len(points))
	keysOf(h, points, keys, &KeyScratch{norms: norms})
	perm := hashOrder(len(keys), func(i int) uint64 { return keys[i] })
	runs := func(yield func(lo, hi int) bool) {
		for lo := 0; lo < len(perm); {
			hi := lo + 1
			for hi < len(perm) && keys[perm[hi]] == keys[perm[lo]] {
				hi++
			}
			if !yield(lo, hi) {
				return
			}
			lo = hi
		}
	}
	buckets, sketches := 0, 0
	for lo, hi := range runs {
		buckets++
		if hi-lo >= p.HLLThreshold {
			sketches++
		}
	}
	b := newSlabBuilder(p.HLLRegisters, narrowFor(len(points)), buckets, len(perm), sketches)
	scratch := hll.New(p.HLLRegisters)
	for lo, hi := range runs {
		addIDs(b, keys[perm[lo]], perm[lo:hi], sketchOf(perm[lo:hi], p, scratch))
	}
	return b.finish()
}
