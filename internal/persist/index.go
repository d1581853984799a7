package persist

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/pointstore"
)

// Write writes a complete plain (kind-1) snapshot of st — a classic or
// multi-probe *core.Index[P] or a *covering.Index — under the
// given metric identifier and returns the number of bytes written. The
// output is deterministic: equal indexes (same points, same drawn hash
// functions) serialize to equal bytes. The index must not be mutated
// concurrently.
func Write[P any](w io.Writer, metric string, st core.Store[P]) (int64, error) {
	return writeContainer(w, metric, kindIndex, func(w io.Writer, c *codec[P]) error {
		return writeBody(w, c, st, false)
	})
}

// Read reads a plain (kind-1) snapshot, requiring it to hold the given
// metric, and reassembles the index without rebuilding; the returned
// store answers queries id-for-id identically to the one that was saved.
// The snapshot decides the kind: a "covr" body comes back as a
// *covering.Index, anything else as a *core.Index[P] — multi-probe with
// the recorded T when a "prob" section is present. Callers that demand
// one mode check it with Meta.RequireMode.
func Read[P any](r io.Reader, metric string) (core.Store[P], Meta, error) {
	c, ss, err := openContainer[P](r, metric, kindIndex)
	if err != nil {
		return nil, Meta{}, err
	}
	st, meta, err := readBody(ss, c, 0)
	if err != nil {
		return nil, Meta{}, err
	}
	if _, err := ss.read("end!"); err != nil {
		return nil, Meta{}, err
	}
	return st, meta, nil
}

// writeContainer is the container every writer shares: resolve the codec,
// write the header, let body write the kind's sections, terminate.
func writeContainer[P any](w io.Writer, metric string, kind byte, body func(w io.Writer, c *codec[P]) error) (int64, error) {
	c, err := codecFor[P](metric)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: w}
	if err := writeHeader(cw, kind); err != nil {
		return cw.n, err
	}
	if err := body(cw, c); err != nil {
		return cw.n, err
	}
	return cw.n, writeSection(cw, "end!", nil)
}

// openContainer is the container every reader shares: resolve the codec,
// check the header and require the given kind.
func openContainer[P any](r io.Reader, metric string, kind byte) (*codec[P], *sectionStream, error) {
	c, err := codecFor[P](metric)
	if err != nil {
		return nil, nil, err
	}
	got, err := readHeader(r)
	if err != nil {
		return nil, nil, err
	}
	if got != kind {
		if got == kindSharded {
			return nil, nil, corrupt("snapshot holds a sharded index; use the sharded reader")
		}
		return nil, nil, corrupt("snapshot holds a plain index; use the plain reader")
	}
	return c, &sectionStream{r: r}, nil
}

// writeBody writes one index's sections — the body of a plain snapshot
// and of every shard in a sharded one — dispatching on the store's kind.
// inShard drops a multi-probe index's "prob" section: a sharded snapshot
// records T once, at structure level.
func writeBody[P any](w io.Writer, c *codec[P], st core.Store[P], inShard bool) error {
	switch v := any(st).(type) {
	case *core.Index[P]:
		probes := v.Defaults().Probes.N
		if inShard {
			probes = 0
		}
		return writeIndexParts(w, c, v, probes)
	case *covering.Index:
		if c.metric != MetricHamming {
			return fmt.Errorf("persist: a covering index is a %s index, not %q", MetricHamming, c.metric)
		}
		return writeCoveringBody(w, v)
	}
	return fmt.Errorf("persist: unsupported index type %T", st)
}

// readBody reads one index's sections, dispatching on the first: "covr"
// opens a covering index, "meta" a classic or multi-probe one. probes is
// a sharded snapshot's structure-level T, which every shard's index is
// restored with; a "prob" section after "meta" (a plain snapshot's T) is
// honoured too and reported in Meta.Probes, for the sharded reader to
// reject.
func readBody[P any](ss *sectionStream, c *codec[P], probes int) (core.Store[P], Meta, error) {
	tag, err := ss.peek()
	if err != nil {
		return nil, Meta{}, err
	}
	if tag != "covr" {
		ix, m, err := readIndexBody(ss, c, probes)
		if err != nil {
			return nil, Meta{}, err
		}
		return ix, publicMeta(m), nil
	}
	if c.metric != MetricHamming {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds a covering (%s) index, the reader wants metric %q", ErrCoverMode, MetricHamming, c.metric)
	}
	if probes > 0 {
		return nil, Meta{}, corrupt("probe section on a covering index")
	}
	ix, cm, err := readCoveringBody(ss)
	if err != nil {
		return nil, Meta{}, err
	}
	return any(ix).(core.Store[P]), coverPublicMeta(cm), nil // hamming stores vector.Binary (codecFor)
}

// RequireMode returns nil when the snapshot holds the serving mode the
// caller demands — probes: a multi-probe index, cover: a covering one,
// neither: a classic one — and the typed mismatch otherwise. No reader
// converts between modes: dropping T (or inventing one) would change
// answers, and a covering file records φ and mask tables where the
// others record an LSH family.
func (m Meta) RequireMode(probes, cover bool) error {
	switch {
	case cover != (m.CoverRadius > 0):
		return fmt.Errorf("%w: snapshot holds covering radius %d", ErrCoverMode, m.CoverRadius)
	case probes != (m.Probes > 0):
		return fmt.Errorf("%w: snapshot holds probe count T=%d", ErrProbeMode, m.Probes)
	}
	return nil
}

// publicMeta converts the wire meta to the exported summary.
func publicMeta(m *indexMeta) Meta {
	return Meta{
		Metric: m.metric,
		Dim:    m.dim,
		N:      m.n,
		Radius: m.radius,
		Delta:  m.delta,
		K:      m.params.K,
		L:      m.params.L,
		Probes: m.probes,
		Quant:  m.quant.String(),
		Seed:   m.params.Seed,
	}
}

// writeIndexParts writes the "meta", optional "prob"/"quan", "pnts" and
// L "tabl" sections of one classic index; probes > 0 adds the "prob"
// section (snapshots without it are byte-identical to the probe-less
// format).
func writeIndexParts[P any](w io.Writer, c *codec[P], ix *core.Index[P], probes int) error {
	points := ix.Points()
	fam := ix.Family()
	if fam == nil {
		return fmt.Errorf("persist: index has no family (built before persistence support?)")
	}
	if got := fam.Name(); got != c.familyName {
		return fmt.Errorf("persist: metric %q expects family %q, index uses %q", c.metric, c.familyName, got)
	}
	m := &indexMeta{
		metric:    c.metric,
		n:         len(points),
		radius:    ix.Radius(),
		delta:     ix.Delta(),
		p1:        ix.P1(),
		costAlpha: ix.Cost().Alpha,
		costBeta:  ix.Cost().Beta,
		params:    ix.Tables().Params(),
	}
	dimmer, ok := fam.(interface{ Dim() int })
	if !ok {
		return fmt.Errorf("persist: family %q does not report its dimension", fam.Name())
	}
	m.dim = dimmer.Dim()
	if err := c.extra(fam, m); err != nil {
		return err
	}

	var e enc
	if err := encodeIndexMeta(&e, m); err != nil {
		return err
	}
	if err := writeSection(w, "meta", e.b); err != nil {
		return err
	}

	if probes > 0 {
		if err := writeProbeSection(w, probes); err != nil {
			return err
		}
	}

	// The quantized copy is a derived structure — only its mode is
	// recorded (the reader refits it from the exact points), and only
	// when it is on, so exact-only snapshots keep their original bytes.
	if mode, err := pointstore.ParseMode(ix.StoreStats().Quant); err == nil && mode != pointstore.ModeOff {
		if err := writeQuantSection(w, mode); err != nil {
			return err
		}
	}

	e = enc{}
	if err := c.writePoints(&e, m, points); err != nil {
		return err
	}
	if err := writeSection(w, "pnts", e.b); err != nil {
		return err
	}

	for j := 0; j < ix.Tables().L(); j++ {
		e = enc{}
		if err := c.writeHasher(&e, m, ix.Tables().Hasher(j)); err != nil {
			return err
		}
		if err := writeBuckets(&e, ix.Tables().SortedBuckets(j), m.n); err != nil {
			return err
		}
		if err := writeSection(w, "tabl", e.b); err != nil {
			return err
		}
	}
	return nil
}

// readIndexBody reads the "meta", optional "prob"/"quan", "pnts" and L
// "tabl" sections and reassembles the index; a present "prob" section
// is recorded in the returned meta's probes field and, like a non-zero
// structure-level probes, restores a multi-probe index (hashers that
// cannot probe are corrupt). A present "quan" section selects the
// quantization mode of the point store the index is rebuilt over (the
// quantized copy itself is refit from the exact points).
func readIndexBody[P any](ss *sectionStream, c *codec[P], probes int) (*core.Index[P], *indexMeta, error) {
	payload, err := ss.read("meta")
	if err != nil {
		return nil, nil, err
	}
	m, err := decodeIndexMeta(payload, c.metric)
	if err != nil {
		return nil, nil, err
	}

	if m.probes, err = ss.readProbeSection(); err != nil {
		return nil, nil, err
	}

	if m.quant, err = ss.readQuantSection(); err != nil {
		return nil, nil, err
	}
	if m.quant != pointstore.ModeOff && m.metric != MetricL2 {
		return nil, nil, corrupt("metric %q snapshot carries a %q quantization section (only %s supports one)", m.metric, m.quant, MetricL2)
	}

	payload, err = ss.read("pnts")
	if err != nil {
		return nil, nil, err
	}
	d := &dec{b: payload}
	points, err := c.readPoints(d, m)
	if err != nil {
		return nil, nil, err
	}
	if err := d.done("pnts"); err != nil {
		return nil, nil, err
	}

	hashers := make([]lsh.Hasher[P], m.params.L)
	slabs := make([]*lsh.Slab, m.params.L)
	for j := range hashers {
		payload, err = ss.read("tabl")
		if err != nil {
			return nil, nil, err
		}
		d = &dec{b: payload}
		hasher, err := c.readHasher(d, m)
		if err != nil {
			return nil, nil, err
		}
		slab, err := readBuckets(d, m)
		if err != nil {
			return nil, nil, err
		}
		if err := d.done("tabl"); err != nil {
			return nil, nil, err
		}
		hashers[j], slabs[j] = hasher, slab
	}

	lt, err := lsh.RestoreTables(m.params, hashers, slabs, m.n)
	if err != nil {
		return nil, nil, corrupt("restoring tables: %v", err)
	}
	fam, err := c.family(m)
	if err != nil {
		return nil, nil, corrupt("restoring family: %v", err)
	}
	cfg := core.RestoreConfig[P]{
		Family:   fam,
		Distance: c.dist,
		Radius:   m.radius,
		Delta:    m.delta,
		P1:       m.p1,
		Cost:     core.CostModel{Alpha: m.costAlpha, Beta: m.costBeta},
		Probes:   max(m.probes, probes),
	}
	if c.store != nil {
		cfg.Store = c.store(m)
	}
	ix, err := core.Restore(points, lt, cfg)
	if err != nil {
		return nil, nil, corrupt("restoring index: %v", err)
	}
	return ix, m, nil
}

// ---- meta section ----

func encodeIndexMeta(e *enc, m *indexMeta) error {
	e.str(m.metric)
	e.u32(uint32(m.dim))
	e.u64(uint64(m.n))
	e.f64(m.radius)
	e.f64(m.delta)
	e.f64(m.p1)
	e.f64(m.costAlpha)
	e.f64(m.costBeta)
	e.u32(uint32(m.params.K))
	e.u32(uint32(m.params.L))
	e.u32(uint32(m.params.HLLRegisters))
	e.u32(uint32(m.params.HLLThreshold))
	e.u64(m.params.Seed)
	switch m.metric {
	case MetricL2, MetricL1:
		e.f64(m.w)
	case MetricAngular:
		e.u32(uint32(len(m.curve)))
		for _, p := range m.curve {
			e.f64(p)
		}
	}
	return nil
}

func decodeIndexMeta(payload []byte, wantMetric string) (*indexMeta, error) {
	d := &dec{b: payload}
	m := &indexMeta{}
	m.metric = d.str()
	if d.err != nil {
		return nil, d.err
	}
	if m.metric != wantMetric {
		return nil, fmt.Errorf("%w: snapshot holds metric %q, want %q", ErrMetric, m.metric, wantMetric)
	}
	m.dim = int(d.u32())
	m.n = int(d.u64())
	m.radius = d.f64()
	m.delta = d.f64()
	m.p1 = d.f64()
	m.costAlpha = d.f64()
	m.costBeta = d.f64()
	m.params.K = int(d.u32())
	m.params.L = int(d.u32())
	m.params.HLLRegisters = int(d.u32())
	m.params.HLLThreshold = int(d.u32())
	m.params.Seed = d.u64()
	switch wantMetric {
	case MetricL2, MetricL1:
		m.w = d.f64()
	case MetricAngular:
		nc := int(d.u32())
		if d.err == nil && (nc < 2 || nc > maxCurve) {
			return nil, corrupt("calibration curve has %d points, want 2..%d", nc, maxCurve)
		}
		if !d.need(nc * 8) {
			return nil, d.err
		}
		m.curve = make([]float64, nc)
		for i := range m.curve {
			m.curve[i] = d.f64()
			if math.IsNaN(m.curve[i]) || m.curve[i] < 0 || m.curve[i] > 1 {
				return nil, corrupt("calibration curve point %d = %v outside [0,1]", i, m.curve[i])
			}
		}
	}
	if err := d.done("meta"); err != nil {
		return nil, err
	}
	return m, validateMeta(m)
}

func validateMeta(m *indexMeta) error {
	if m.dim < 1 || m.dim > maxDim {
		return corrupt("dim %d outside [1,%d]", m.dim, maxDim)
	}
	if m.n < 0 || m.n > 1<<31-1 {
		return corrupt("point count %d outside [0,2^31)", m.n)
	}
	if !(m.radius > 0) || math.IsInf(m.radius, 0) {
		return corrupt("radius %v not positive and finite", m.radius)
	}
	if !(m.delta > 0 && m.delta < 1) {
		return corrupt("delta %v outside (0,1)", m.delta)
	}
	if !(m.p1 >= 0 && m.p1 <= 1) {
		return corrupt("p1 %v outside [0,1]", m.p1)
	}
	if !(m.costAlpha > 0) || math.IsInf(m.costAlpha, 0) || !(m.costBeta > 0) || math.IsInf(m.costBeta, 0) {
		return corrupt("cost model (%v, %v) not positive and finite", m.costAlpha, m.costBeta)
	}
	if m.params.K < 1 || m.params.K > maxK {
		return corrupt("k %d outside [1,%d]", m.params.K, maxK)
	}
	if m.params.L < 1 || m.params.L > maxTables {
		return corrupt("L %d outside [1,%d]", m.params.L, maxTables)
	}
	if mr := m.params.HLLRegisters; mr < hll.MinM || mr > hll.MaxM || mr&(mr-1) != 0 {
		return corrupt("HLL registers %d not a power of two in [%d,%d]", mr, hll.MinM, hll.MaxM)
	}
	if m.params.HLLThreshold < 0 {
		return corrupt("HLL threshold %d negative", m.params.HLLThreshold)
	}
	if m.params.HLLThreshold == 0 {
		m.params.HLLThreshold = m.params.HLLRegisters
	}
	switch m.metric {
	case MetricL2, MetricL1:
		if !(m.w > 0) || math.IsInf(m.w, 0) {
			return corrupt("slot width %v not positive and finite", m.w)
		}
	case MetricAngular:
		if m.dim < 2 {
			return corrupt("angular dim %d, want >= 2", m.dim)
		}
	}
	return nil
}
