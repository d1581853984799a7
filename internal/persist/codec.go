package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/distance"
	"repro/internal/hll"
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
	// readStore, when set, decodes a "pnts" payload, in the parts it
	// arrived in, straight into the flat point store a restored index
	// verifies through, which adopts the decoded rows; the l2 codec
	// honors the decoded "quan" mode here, so an SQ8 snapshot refits its
	// quantized copy on hydrate. The other metrics restore the generic
	// store over readPoints' points.
	readStore   func(parts [][]byte, m *indexMeta) (pointstore.Store[P], error)
	writeHasher func(e *enc, m *indexMeta, h lsh.Hasher[P]) error
	readHasher  func(d *dec, m *indexMeta) (lsh.Hasher[P], error)
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
			readStore:   readFlatBinary,
			writeHasher: writeBitSamplingHasher,
			readHasher:  readBitSamplingHasher,
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
	var readStore func(parts [][]byte, m *indexMeta) (pointstore.Store[vector.Dense], error)
	if metric == MetricL2 {
		readStore = readFlatL2 // the flat kernels compute squared L2
	}
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
		readStore:   readStore,
		writeHasher: writePStableHasher,
		readHasher:  readPStableHasher,
	}
}

// store decodes a "pnts" payload, in the parts it arrived in, into a
// restored index's point store.
func (c *codec[P]) store(parts [][]byte, m *indexMeta) (pointstore.Store[P], error) {
	if c.readStore != nil {
		return c.readStore(parts, m)
	}
	d := &dec{b: bytes.Join(parts, nil)}
	pts, err := c.readPoints(d, m)
	if err != nil {
		return nil, err
	}
	if err := d.done("pnts"); err != nil {
		return nil, err
	}
	return pointstore.NewGeneric(pts, c.dist), nil
}

// readFlatL2 decodes dense points into the l2 flat store, which adopts
// the decoded rows.
func readFlatL2(parts [][]byte, m *indexMeta) (pointstore.Store[vector.Dense], error) {
	if err := holds(parts, 4*uint64(m.n)*uint64(m.dim), "dense points"); err != nil {
		return nil, err
	}
	return pointstore.AdoptFlatL2(denseRows(parts, m), m.dim, m.quant)
}

// readFlatBinary decodes binary points into the Hamming flat store,
// which adopts the decoded rows.
func readFlatBinary(parts [][]byte, m *indexMeta) (pointstore.Store[vector.Binary], error) {
	if err := holds(parts, 8*uint64(m.n)*uint64((m.dim+63)/64), "binary points"); err != nil {
		return nil, err
	}
	return pointstore.AdoptFlatBinary(binaryRows(parts, m), m.dim)
}

// holds checks that a points payload's parts hold exactly the size
// bytes its n points take.
func holds(parts [][]byte, size uint64, what string) error {
	got := uint64(0)
	for _, p := range parts {
		got += uint64(len(p))
	}
	switch {
	case got < size:
		return corrupt("%d bytes of %s exceed the %d payload bytes", size, what, got)
	case got > size:
		return corrupt("section %q has %d trailing bytes", "pnts", got-size)
	}
	return nil
}

// ---- point encodings ----

func writeDensePoints(e *enc, m *indexMeta, at func(i int) vector.Dense) error {
	row := 4 * m.dim
	b := e.grow(row * m.n)
	for i := range m.n {
		p := at(i)
		if len(p) != m.dim {
			return fmt.Errorf("persist: point %d has dim %d, index dim is %d", i, len(p), m.dim)
		}
		putFloats(b[i*row:(i+1)*row], p)
	}
	return nil
}

// denseRows decodes the n × dim floats of a dense points payload into
// one array, the rows back to back, from parts that hold exactly their
// bytes, each a multiple of 4 long.
func denseRows(parts [][]byte, m *indexMeta) []float32 {
	flat := make([]float32, m.n*m.dim)
	k := 0
	for _, p := range parts {
		getFloats(flat[k:k+len(p)/4], p)
		k += len(p) / 4
	}
	return flat
}

func readDensePoints(d *dec, m *indexMeta) ([]vector.Dense, error) {
	total := uint64(m.n) * uint64(m.dim)
	if total*4 > uint64(d.rem()) {
		return nil, corrupt("%d dense points of dim %d exceed the %d payload bytes", m.n, m.dim, d.rem())
	}
	flat := denseRows([][]byte{d.take(4 * int(total))}, m)
	pts := make([]vector.Dense, m.n)
	for i := range pts {
		pts[i] = vector.Dense(flat[i*m.dim : (i+1)*m.dim : (i+1)*m.dim])
	}
	return pts, nil
}

// putFloats encodes src into dst, 4 bytes each.
func putFloats(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	for k, v := range src {
		binary.LittleEndian.PutUint32(dst[4*k:], math.Float32bits(v))
	}
}

// getFloats decodes dst from src, 4 bytes each.
func getFloats(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for k := range dst {
		dst[k] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*k:]))
	}
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
	b := e.grow(8 * words * m.n)
	for i := range m.n {
		p := at(i)
		if p.Dim != m.dim || len(p.Words) != words {
			return fmt.Errorf("persist: point %d has dim %d (%d words), index dim is %d", i, p.Dim, len(p.Words), m.dim)
		}
		for k, w := range p.Words {
			binary.LittleEndian.PutUint64(b[8*(i*words+k):], w)
		}
	}
	return nil
}

// binaryRows decodes the n rows of a binary points payload into one word
// array, the rows back to back, from parts that hold exactly their
// bytes, each a multiple of 8 long. The bits beyond dim in each row's
// trailing word are cleared, so PopCount and Hamming over adversarial
// input match what SetBit could produce.
func binaryRows(parts [][]byte, m *indexMeta) []uint64 {
	words := (m.dim + 63) / 64
	rows := make([]uint64, m.n*words)
	k := 0
	for _, p := range parts {
		for i := range len(p) / 8 {
			rows[k+i] = binary.LittleEndian.Uint64(p[8*i:])
		}
		k += len(p) / 8
	}
	if r := uint(m.dim) % 64; r != 0 {
		for i := words - 1; i < len(rows); i += words {
			rows[i] &= 1<<r - 1
		}
	}
	return rows
}

func readBinaryPoints(d *dec, m *indexMeta) ([]vector.Binary, error) {
	words := (m.dim + 63) / 64
	total := uint64(m.n) * uint64(words)
	if total*8 > uint64(d.rem()) {
		return nil, corrupt("%d binary points of %d words exceed the %d payload bytes", m.n, words, d.rem())
	}
	rows := binaryRows([][]byte{d.take(8 * int(total))}, m)
	pts := make([]vector.Binary, m.n)
	for i := range pts {
		pts[i] = vector.Binary{Dim: m.dim, Words: rows[i*words : (i+1)*words : (i+1)*words]}
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

// writeBuckets appends table j's buckets in ascending key order
// (lsh.Tables.SortedBuckets): their count, then per bucket the key, id
// count, ids, and the sketch flag plus registers when the bucket carries
// one. The section's length is known before the first bucket comes
// (lsh.Tables.Extent), so its bytes are sized once and written in place.
func writeBuckets[P any](e *enc, lt *lsh.Tables[P], j, n int) error {
	nb, nids, sketched := lt.Extent(j)
	b := e.grow(8 + 13*nb + 4*nids + lt.Params().HLLRegisters*sketched)
	binary.LittleEndian.PutUint64(b, uint64(nb))
	p, count := 8, 0
	for key, bk := range lt.SortedBuckets(j) {
		size := bk.Len()
		if 13+4*size+len(bk.Sketch) > len(b)-p {
			return fmt.Errorf("persist: table %d yields more than its %d section bytes", j, len(b))
		}
		binary.LittleEndian.PutUint64(b[p:], key)
		binary.LittleEndian.PutUint32(b[p+8:], uint32(size))
		p += 12
		var err error
		if ids := bk.Narrow(); ids != nil {
			err = putIDs(b[p:], ids, n)
		} else {
			err = putIDs(b[p:], bk.IDs, n)
		}
		if err != nil {
			return err
		}
		p += 4 * size
		b[p] = 0
		if bk.Sketch != nil {
			b[p] = 1
			p += copy(b[p+1:], bk.Sketch)
		}
		p++
		count++
	}
	if p != len(b) || count != nb {
		return fmt.Errorf("persist: table %d yields %d buckets in %d bytes, its extent says %d in %d", j, count, p, nb, len(b))
	}
	return nil
}

// putIDs encodes a bucket's ids, in either slab width, as int32s.
func putIDs[S lsh.ID](dst []byte, ids []S, n int) error {
	dst = dst[:4*len(ids)]
	for k, id := range ids {
		if int(id) < 0 || int(id) >= n {
			return fmt.Errorf("persist: bucket id %d outside [0,%d)", id, n)
		}
		binary.LittleEndian.PutUint32(dst[4*k:], uint32(id))
	}
	return nil
}

// getIDs decodes a bucket's int32 ids from src into the slab's width,
// refusing an id outside [0, n) before it is narrowed. It returns the
// position of the first refused id, or -1.
func getIDs[D lsh.ID](ids []D, src []byte, n int) int {
	src = src[:4*len(ids)]
	for k := range ids {
		id := binary.LittleEndian.Uint32(src[4*k:])
		if id >= uint32(n) { // a negative int32 is above every n < 2^31
			return k
		}
		ids[k] = D(id)
	}
	return -1
}

// startBufs keeps readBuckets' bucket offsets between tables, so that a
// load, which decodes its tables one after another on each worker,
// allocates none per table.
var startBufs sync.Pool // of *[]int

// bucketStarts returns an array of n offsets and the call that hands it
// back.
func bucketStarts(n int) ([]int, func()) {
	buf, _ := startBufs.Get().(*[]int)
	if buf == nil || cap(*buf) < n {
		buf = new([]int)
		*buf = make([]int, n)
	}
	return (*buf)[:n], func() { startBufs.Put(buf) }
}

// readBuckets decodes one table's buckets, in any key order, into a
// frozen slab of the width n picks, in two passes over the payload. The
// first checks the framing — counts, sketch flags, every stored sketch's
// registers — and notes where each bucket starts; the second, NewSlab's
// fill in hash order, decodes each bucket's ids straight into the slab,
// range-checking every one against n, and copies its registers.
func readBuckets(d *dec, m *indexMeta) (*lsh.Slab, error) {
	// A minimal bucket is key(8) + count(4) + one id(4) + flag(1).
	nb := d.count(17, "bucket")
	if d.err != nil {
		return nil, d.err
	}
	mreg := m.params.HLLRegisters
	at, done := bucketStarts(nb)
	defer done()
	for i := range at {
		at[i] = d.off
		d.u64() // the key
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
		d.off += 4 * int(nids)
		switch flag := d.u8(); flag {
		case 0:
		case 1:
			if !d.need(mreg) {
				return nil, d.err
			}
			if err := hll.CheckRegisters(d.take(mreg)); err != nil {
				return nil, corrupt("bucket %d sketch: %v", i, err)
			}
		default:
			if d.err != nil {
				return nil, d.err
			}
			return nil, corrupt("bucket %d has sketch flag %d", i, flag)
		}
	}
	b := d.b
	describe := func(i int) (uint64, int, bool) {
		o := at[i]
		nids := int(binary.LittleEndian.Uint32(b[o+8:]))
		return binary.LittleEndian.Uint64(b[o:]), nids, b[o+12+4*nids] == 1
	}
	fill := func(i int, narrow []uint16, wide []int32, regs []uint8) error {
		ids := b[at[i]+12:]
		bad := -1
		if narrow != nil {
			bad = getIDs(narrow, ids, m.n)
		} else {
			bad = getIDs(wide, ids, m.n)
		}
		if bad >= 0 {
			return corrupt("bucket %d id %d outside [0,%d)", i, int32(binary.LittleEndian.Uint32(ids[4*bad:])), m.n)
		}
		copy(regs, ids[4*(len(narrow)+len(wide))+1:])
		return nil
	}
	slab, err := lsh.NewSlab(mreg, m.n, nb, describe, fill)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		err = corrupt("%v", err)
	}
	return slab, err
}
