package persist

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"slices"

	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/vector"
)

// indexMeta is the decoded (or to-be-encoded) "meta" section of one
// plain index.
type indexMeta struct {
	metric            string
	dim               int
	n                 int
	radius, delta, p1 float64
	costAlpha         float64
	costBeta          float64
	params            lsh.Params
	w                 float64         // p-stable slot width (l1/l2 only)
	curve             []float64       // cross-polytope calibrated curve (angular only)
	probes            int             // multi-probe T from the optional "prob" section (0 = plain)
	quant             pointstore.Mode // quantization mode from the optional "quan" section (l2 only)
}

// codec binds one metric identifier to its point type P: the distance
// function, the family reconstruction, and the point/hasher wire
// encodings. codecFor returns the codec for a metric, erroring when P
// does not match the metric's point type.
type codec[P any] struct {
	metric      string
	familyName  string // lsh.Family.Name() the metric requires
	dist        distance.Func[P]
	family      func(m *indexMeta) (lsh.Family[P], error)
	extra       func(fam lsh.Family[P], m *indexMeta) error // harvest w/curve before writing
	writePoints func(e *enc, m *indexMeta, at func(i int) P) error
	readPoints  func(d *dec, m *indexMeta) ([]P, error)
	writeHasher func(e *enc, m *indexMeta, h lsh.Hasher[P]) error
	readHasher  func(d *dec, m *indexMeta) (lsh.Hasher[P], error)
	// store picks the point-store builder a restored index verifies
	// through (nil, or a nil return, falls back to core's generic
	// store). The l2 codec honors the decoded "quan" mode here, so an
	// SQ8 snapshot refits its quantized copy on hydrate.
	store func(m *indexMeta) pointstore.Builder[P]
}

// codecFor resolves metric to its codec, checking that the caller's
// point type matches the metric's.
func codecFor[P any](metric string) (*codec[P], error) {
	var c any
	switch metric {
	case MetricL2:
		c = pstableCodec(MetricL2, "pstable-l2", distance.L2, lsh.NewPStableL2)
	case MetricL1:
		c = pstableCodec(MetricL1, "pstable-l1", distance.L1, lsh.NewPStableL1)
	case MetricCosine:
		c = &codec[vector.Sparse]{
			metric:     MetricCosine,
			familyName: "simhash-cosine",
			dist:       distance.Cosine,
			family: func(m *indexMeta) (lsh.Family[vector.Sparse], error) {
				return lsh.NewSimHashCosine(m.dim), nil
			},
			extra:       func(lsh.Family[vector.Sparse], *indexMeta) error { return nil },
			writePoints: writeSparsePoints,
			readPoints:  readSparsePoints,
			writeHasher: writeSimHashHasher,
			readHasher:  readSimHashHasher,
		}
	case MetricHamming:
		c = &codec[vector.Binary]{
			metric:     MetricHamming,
			familyName: "bitsampling",
			dist:       distance.Hamming,
			family: func(m *indexMeta) (lsh.Family[vector.Binary], error) {
				return lsh.NewBitSampling(m.dim), nil
			},
			extra:       func(lsh.Family[vector.Binary], *indexMeta) error { return nil },
			writePoints: writeBinaryPoints,
			readPoints:  readBinaryPoints,
			writeHasher: writeBitSamplingHasher,
			readHasher:  readBitSamplingHasher,
			store: func(*indexMeta) pointstore.Builder[vector.Binary] {
				return pointstore.BinaryHammingBuilder()
			},
		}
	case MetricJaccard:
		c = &codec[vector.Binary]{
			metric:     MetricJaccard,
			familyName: "minhash",
			dist:       distance.Jaccard,
			family: func(m *indexMeta) (lsh.Family[vector.Binary], error) {
				return lsh.NewMinHash(m.dim), nil
			},
			extra:       func(lsh.Family[vector.Binary], *indexMeta) error { return nil },
			writePoints: writeBinaryPoints,
			readPoints:  readBinaryPoints,
			writeHasher: writeMinHashHasher,
			readHasher:  readMinHashHasher,
		}
	case MetricAngular:
		c = &codec[vector.Dense]{
			metric:     MetricAngular,
			familyName: "crosspolytope",
			dist:       distance.AngularDense,
			family: func(m *indexMeta) (lsh.Family[vector.Dense], error) {
				return lsh.RestoreCrossPolytope(m.dim, m.curve)
			},
			extra: func(fam lsh.Family[vector.Dense], m *indexMeta) error {
				cp, ok := fam.(*lsh.CrossPolytope)
				if !ok {
					return fmt.Errorf("persist: angular index family is %T, want *lsh.CrossPolytope", fam)
				}
				m.curve = cp.ProbsTable()
				return nil
			},
			writePoints: writeDensePoints,
			readPoints:  readDensePoints,
			writeHasher: writeCrossPolytopeHasher,
			readHasher:  readCrossPolytopeHasher,
		}
	default:
		return nil, fmt.Errorf("persist: unknown metric %q", metric)
	}
	cc, ok := c.(*codec[P])
	if !ok {
		return nil, fmt.Errorf("persist: metric %q does not store the requested point type", metric)
	}
	return cc, nil
}

// pstableCodec builds the shared l1/l2 codec: both store dense points
// and p-stable hashers, differing in the distance function and in which
// stable distribution drew the projections (recorded via familyName and
// reconstructed by newFam).
func pstableCodec(metric, familyName string, dist distance.Func[vector.Dense],
	newFam func(dim int, w float64) *lsh.PStable) *codec[vector.Dense] {
	return &codec[vector.Dense]{
		metric:     metric,
		familyName: familyName,
		dist:       dist,
		family: func(m *indexMeta) (lsh.Family[vector.Dense], error) {
			return newFam(m.dim, m.w), nil
		},
		extra: func(fam lsh.Family[vector.Dense], m *indexMeta) error {
			ps, ok := fam.(*lsh.PStable)
			if !ok {
				return fmt.Errorf("persist: %s index family is %T, want *lsh.PStable", metric, fam)
			}
			m.w = ps.W()
			return nil
		},
		writePoints: writeDensePoints,
		readPoints:  readDensePoints,
		writeHasher: writePStableHasher,
		readHasher:  readPStableHasher,
		store: func(m *indexMeta) pointstore.Builder[vector.Dense] {
			if metric != MetricL2 {
				return nil // the flat kernels compute squared L2; L1 keeps the generic store
			}
			return pointstore.DenseL2Builder(m.quant)
		},
	}
}

// ---- point encodings ----

func writeDensePoints(e *enc, m *indexMeta, at func(i int) vector.Dense) error {
	e.b = slices.Grow(e.b, 4*m.dim*m.n)
	for i := range m.n {
		p := at(i)
		if len(p) != m.dim {
			return fmt.Errorf("persist: point %d has dim %d, index dim is %d", i, len(p), m.dim)
		}
		for _, v := range p {
			e.f32(v)
		}
	}
	return nil
}

func readDensePoints(d *dec, m *indexMeta) ([]vector.Dense, error) {
	total := uint64(m.n) * uint64(m.dim)
	if total*4 > uint64(d.rem()) {
		return nil, corrupt("%d dense points of dim %d exceed the %d payload bytes", m.n, m.dim, d.rem())
	}
	backing := make([]float32, int(total))
	for i := range backing {
		backing[i] = d.f32()
	}
	if d.err != nil {
		return nil, d.err
	}
	pts := make([]vector.Dense, m.n)
	for i := range pts {
		pts[i] = vector.Dense(backing[i*m.dim : (i+1)*m.dim : (i+1)*m.dim])
	}
	return pts, nil
}

func writeSparsePoints(e *enc, m *indexMeta, at func(i int) vector.Sparse) error {
	for i := range m.n {
		p := at(i)
		if p.Dim != m.dim {
			return fmt.Errorf("persist: point %d has dim %d, index dim is %d", i, p.Dim, m.dim)
		}
		if len(p.Idx) != len(p.Val) {
			return fmt.Errorf("persist: point %d has %d indices for %d values", i, len(p.Idx), len(p.Val))
		}
		e.u32(uint32(len(p.Idx)))
		for _, idx := range p.Idx {
			e.i32(idx)
		}
		for _, v := range p.Val {
			e.f32(v)
		}
	}
	return nil
}

func readSparsePoints(d *dec, m *indexMeta) ([]vector.Sparse, error) {
	// Each sparse point occupies at least its 4-byte nnz field, which
	// bounds n by the payload before the slice is allocated.
	if uint64(m.n)*4 > uint64(d.rem()) {
		return nil, corrupt("%d sparse points exceed the %d payload bytes", m.n, d.rem())
	}
	pts := make([]vector.Sparse, m.n)
	for i := range pts {
		nnz := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if !d.need(nnz * 8) {
			return nil, d.err
		}
		idx := make([]int32, nnz)
		val := make([]float32, nnz)
		prev := int32(-1)
		for k := range idx {
			idx[k] = d.i32()
			if idx[k] <= prev || int(idx[k]) >= m.dim {
				return nil, corrupt("sparse point %d index %d not strictly increasing inside [0,%d)", i, idx[k], m.dim)
			}
			prev = idx[k]
		}
		for k := range val {
			val[k] = d.f32()
		}
		pts[i] = vector.Sparse{Dim: m.dim, Idx: idx, Val: val}
	}
	return pts, d.err
}

func writeBinaryPoints(e *enc, m *indexMeta, at func(i int) vector.Binary) error {
	words := (m.dim + 63) / 64
	e.b = slices.Grow(e.b, 8*words*m.n)
	for i := range m.n {
		p := at(i)
		if p.Dim != m.dim || len(p.Words) != words {
			return fmt.Errorf("persist: point %d has dim %d (%d words), index dim is %d", i, p.Dim, len(p.Words), m.dim)
		}
		for _, w := range p.Words {
			e.u64(w)
		}
	}
	return nil
}

func readBinaryPoints(d *dec, m *indexMeta) ([]vector.Binary, error) {
	words := (m.dim + 63) / 64
	total := uint64(m.n) * uint64(words)
	if total*8 > uint64(d.rem()) {
		return nil, corrupt("%d binary points of %d words exceed the %d payload bytes", m.n, words, d.rem())
	}
	// Mask the bits beyond dim in each trailing word so PopCount and
	// Hamming over adversarial input match what SetBit could produce.
	tailMask := ^uint64(0)
	if r := uint(m.dim) % 64; r != 0 {
		tailMask = 1<<r - 1
	}
	backing := make([]uint64, int(total))
	for i := range backing {
		backing[i] = d.u64()
	}
	if d.err != nil {
		return nil, d.err
	}
	pts := make([]vector.Binary, m.n)
	for i := range pts {
		w := backing[i*words : (i+1)*words : (i+1)*words]
		w[words-1] &= tailMask
		pts[i] = vector.Binary{Dim: m.dim, Words: w}
	}
	return pts, nil
}

// ---- hasher encodings ----
//
// Every hasher section encodes exactly the drawn parameters; k and dim
// come from the meta section, and the p-stable slot width from the
// family extras, so none are repeated per table.

func writePStableHasher(e *enc, m *indexMeta, h lsh.Hasher[vector.Dense]) error {
	ph, ok := h.(*lsh.PStableHasher)
	if !ok {
		return fmt.Errorf("persist: %s table hasher is %T, want *lsh.PStableHasher", m.metric, h)
	}
	a, b := ph.Projections(), ph.Offsets()
	if len(a) != m.params.K {
		return fmt.Errorf("persist: hasher has %d projections, k is %d", len(a), m.params.K)
	}
	for i, proj := range a {
		if len(proj) != m.dim {
			return fmt.Errorf("persist: projection %d has dim %d, index dim is %d", i, len(proj), m.dim)
		}
		for _, v := range proj {
			e.f32(v)
		}
	}
	for _, v := range b {
		e.f64(v)
	}
	return nil
}

func readPStableHasher(d *dec, m *indexMeta) (lsh.Hasher[vector.Dense], error) {
	k := m.params.K
	if !d.need(k*m.dim*4 + k*8) {
		return nil, d.err
	}
	a := make([]vector.Dense, k)
	for i := range a {
		proj := make(vector.Dense, m.dim)
		for j := range proj {
			proj[j] = d.f32()
		}
		a[i] = proj
	}
	b := make([]float64, k)
	for i := range b {
		b[i] = d.f64()
		if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			return nil, corrupt("hasher offset %d is %v", i, b[i])
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return lsh.RestorePStableHasher(m.w, a, b)
}

// readPlanes reads k dense vectors of dim entries (the SimHash layout).
func readPlanes(d *dec, k, dim int) ([]vector.Dense, error) {
	if !d.need(k * dim * 4) {
		return nil, d.err
	}
	planes := make([]vector.Dense, k)
	for i := range planes {
		p := make(vector.Dense, dim)
		for j := range p {
			p[j] = d.f32()
		}
		planes[i] = p
	}
	return planes, d.err
}

func writeSimHashHasher(e *enc, m *indexMeta, h lsh.Hasher[vector.Sparse]) error {
	sh, ok := h.(*lsh.SimHashHasher)
	if !ok {
		return fmt.Errorf("persist: %s table hasher is %T, want *lsh.SimHashHasher", m.metric, h)
	}
	return writePlanes(e, m, sh.Planes())
}

func writePlanes(e *enc, m *indexMeta, planes []vector.Dense) error {
	if len(planes) != m.params.K {
		return fmt.Errorf("persist: hasher has %d planes, k is %d", len(planes), m.params.K)
	}
	for i, p := range planes {
		if len(p) != m.dim {
			return fmt.Errorf("persist: plane %d has dim %d, index dim is %d", i, len(p), m.dim)
		}
		for _, v := range p {
			e.f32(v)
		}
	}
	return nil
}

func readSimHashHasher(d *dec, m *indexMeta) (lsh.Hasher[vector.Sparse], error) {
	planes, err := readPlanes(d, m.params.K, m.dim)
	if err != nil {
		return nil, err
	}
	return lsh.RestoreSimHashHasher(planes)
}

func writeBitSamplingHasher(e *enc, m *indexMeta, h lsh.Hasher[vector.Binary]) error {
	bh, ok := h.(*lsh.BitSamplingHasher)
	if !ok {
		return fmt.Errorf("persist: %s table hasher is %T, want *lsh.BitSamplingHasher", m.metric, h)
	}
	bits := bh.Bits()
	if len(bits) != m.params.K {
		return fmt.Errorf("persist: hasher samples %d bits, k is %d", len(bits), m.params.K)
	}
	for _, b := range bits {
		e.u32(uint32(b))
	}
	return nil
}

func readBitSamplingHasher(d *dec, m *indexMeta) (lsh.Hasher[vector.Binary], error) {
	k := m.params.K
	if !d.need(k * 4) {
		return nil, d.err
	}
	bits := make([]int, k)
	for i := range bits {
		b := d.u32()
		if int(b) >= m.dim {
			return nil, corrupt("sampled bit %d is coordinate %d, dim is %d", i, b, m.dim)
		}
		bits[i] = int(b)
	}
	if d.err != nil {
		return nil, d.err
	}
	return lsh.RestoreBitSamplingHasher(m.dim, bits)
}

func writeMinHashHasher(e *enc, m *indexMeta, h lsh.Hasher[vector.Binary]) error {
	mh, ok := h.(*lsh.MinHashHasher)
	if !ok {
		return fmt.Errorf("persist: %s table hasher is %T, want *lsh.MinHashHasher", m.metric, h)
	}
	seeds := mh.Seeds()
	if len(seeds) != m.params.K {
		return fmt.Errorf("persist: hasher has %d seeds, k is %d", len(seeds), m.params.K)
	}
	for _, s := range seeds {
		e.u64(s)
	}
	return nil
}

func readMinHashHasher(d *dec, m *indexMeta) (lsh.Hasher[vector.Binary], error) {
	k := m.params.K
	if !d.need(k * 8) {
		return nil, d.err
	}
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = d.u64()
	}
	if d.err != nil {
		return nil, d.err
	}
	return lsh.RestoreMinHashHasher(seeds)
}

func writeCrossPolytopeHasher(e *enc, m *indexMeta, h lsh.Hasher[vector.Dense]) error {
	ch, ok := h.(*lsh.CrossPolytopeHasher)
	if !ok {
		return fmt.Errorf("persist: %s table hasher is %T, want *lsh.CrossPolytopeHasher", m.metric, h)
	}
	rots := ch.Rotations()
	if len(rots) != m.params.K {
		return fmt.Errorf("persist: hasher has %d rotations, k is %d", len(rots), m.params.K)
	}
	for i, rows := range rots {
		if len(rows) != m.dim {
			return fmt.Errorf("persist: rotation %d has %d rows, dim is %d", i, len(rows), m.dim)
		}
		for _, row := range rows {
			if len(row) != m.dim {
				return fmt.Errorf("persist: rotation %d row has dim %d, want %d", i, len(row), m.dim)
			}
			for _, v := range row {
				e.f32(v)
			}
		}
	}
	return nil
}

func readCrossPolytopeHasher(d *dec, m *indexMeta) (lsh.Hasher[vector.Dense], error) {
	k := m.params.K
	total := uint64(k) * uint64(m.dim) * uint64(m.dim)
	if total*4 > uint64(d.rem()) {
		return nil, corrupt("%d rotations of dim %d exceed the %d payload bytes", k, m.dim, d.rem())
	}
	rots := make([][]vector.Dense, k)
	for i := range rots {
		rows, err := readPlanes(d, m.dim, m.dim)
		if err != nil {
			return nil, err
		}
		rots[i] = rows
	}
	if d.err != nil {
		return nil, d.err
	}
	return lsh.RestoreCrossPolytopeHasher(m.dim, rots)
}

// ---- bucket encoding (shared by every metric) ----

// writeBuckets appends one table's buckets, which come in ascending key
// order (lsh.Tables.SortedBuckets): their count, then per bucket the key,
// id count, ids, and the sketch flag plus registers when the bucket
// carries one.
func writeBuckets(e *enc, buckets iter.Seq2[uint64, lsh.Bucket], n int) error {
	at := len(e.b)
	e.u64(0) // the bucket count, filled in below
	count := uint64(0)
	for k, b := range buckets {
		e.u64(k)
		e.u32(uint32(b.Len()))
		var err error
		if ids := b.Narrow(); ids != nil {
			err = writeIDs(e, ids, n)
		} else {
			err = writeIDs(e, b.IDs, n)
		}
		if err != nil {
			return err
		}
		if b.Sketch != nil {
			e.u8(1)
			e.b = append(e.b, b.Sketch...)
		} else {
			e.u8(0)
		}
		count++
	}
	binary.LittleEndian.PutUint64(e.b[at:], count)
	return nil
}

// writeIDs appends a bucket's ids, in either slab width, as int32s.
func writeIDs[S lsh.ID](e *enc, ids []S, n int) error {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= n {
			return fmt.Errorf("persist: bucket id %d outside [0,%d)", id, n)
		}
		e.i32(int32(id))
	}
	return nil
}

// readIDs decodes a bucket's ids into the slab's width, refusing an id
// outside [0, n) before it is narrowed.
func readIDs[D lsh.ID](d *dec, ids []D, n, bucket int) error {
	for k := range ids {
		id := d.i32()
		if id < 0 || int(id) >= n {
			return corrupt("bucket %d id %d outside [0,%d)", bucket, id, n)
		}
		ids[k] = D(id)
	}
	return nil
}

// readBuckets decodes one table's buckets, in any key order, straight
// into a frozen slab of the width n picks, range-checking every id
// against n and every stored sketch's registers.
func readBuckets(d *dec, m *indexMeta) (*lsh.Slab, error) {
	// A minimal bucket is key(8) + count(4) + one id(4) + flag(1).
	nb := d.count(17, "bucket")
	if d.err != nil {
		return nil, d.err
	}
	mreg := m.params.HLLRegisters
	// The id hint is exact for a table without sketches.
	sb := lsh.NewSlabBuilder(mreg, m.n, nb, max(d.rem()-13*nb, 0)/4)
	for i := 0; i < nb; i++ {
		key := d.u64()
		nids := d.u32()
		if d.err != nil {
			return nil, d.err
		}
		if nids == 0 {
			return nil, corrupt("bucket %d is empty", i)
		}
		if uint64(nids) > uint64(d.rem())/4 {
			return nil, corrupt("bucket %d claims %d ids, %d payload bytes left", i, nids, d.rem())
		}
		var err error
		if narrow, wide := sb.Add(key, int(nids)); narrow != nil {
			err = readIDs(d, narrow, m.n, i)
		} else {
			err = readIDs(d, wide, m.n, i)
		}
		if err != nil {
			return nil, err
		}
		switch flag := d.u8(); flag {
		case 0:
		case 1:
			if !d.need(mreg) {
				return nil, d.err
			}
			if err := sb.Sketch(d.b[d.off : d.off+mreg]); err != nil {
				return nil, corrupt("bucket %d sketch: %v", i, err)
			}
			d.off += mreg
		default:
			if d.err != nil {
				return nil, d.err
			}
			return nil, corrupt("bucket %d has sketch flag %d", i, flag)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	slab, err := sb.Freeze()
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return slab, nil
}
