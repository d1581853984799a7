package persist

import (
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/vector"
)

// Covering-LSH snapshots. A covering index stores no LSH family and no
// per-table hashers — its 2^(r+1)−1 tables are fully determined by the
// integer radius r and the random map φ — so its snapshot replaces the
// "meta" section with a "covr" section carrying exactly those
// parameters, and its "tabl" sections hold buckets only:
//
//	plain (kind 1):   "covr" | "pnts" | "tabl" × (2^(r+1)−1) | "end!"
//	sharded (kind 2): "smet" | "tomb" | "covr"(radius marker)
//	                  | ("sids" + plain covering sections) × S | "end!"
//
// The kind-1 "covr" payload is radius, dim, n, the HLL geometry, the
// cost model, the construction seed and the dim φ entries; the sharded
// structure-level "covr" holds only the shared radius (each shard's own
// "covr" carries its full per-shard parameters, φ included — shards draw
// independent φ). The readers dispatch on the section (readBody,
// readCoverMarker), so the snapshot decides the mode; nothing converts
// between modes — a covering file has no (k, L, δ) to hand a classic
// index, and a classic file has no φ to hand this one. Both sections are
// sanctioned in-v1 extensions like "prob": files that carry neither are
// byte-identical to the original layout.

// writeCovrSection encodes one covering index's parameters.
func writeCovrSection(w io.Writer, ix *core.Index[vector.Binary], phi *covering.Phi) error {
	p := ix.Tables().Params()
	var e enc
	e.u32(uint32(phi.Radius))
	e.u32(uint32(len(phi.Map)))
	e.u64(uint64(ix.N()))
	e.u32(uint32(p.HLLRegisters))
	e.u32(uint32(p.HLLThreshold))
	e.f64(ix.Cost().Alpha)
	e.f64(ix.Cost().Beta)
	e.u64(phi.Seed)
	for _, v := range phi.Map {
		e.u32(v)
	}
	return writeSection(w, "covr", e.b)
}

// coverMeta is the decoded "covr" section of one covering index.
type coverMeta struct {
	phi         covering.Phi
	dim, n      int
	m, thresh   int
	alpha, beta float64
}

// im bridges to the shared binary-point and bucket codecs, which read
// their geometry from an indexMeta.
func (cm *coverMeta) im() *indexMeta {
	return &indexMeta{
		metric: MetricHamming,
		dim:    cm.dim,
		n:      cm.n,
		params: lsh.Params{K: 1, L: covering.NumTables(cm.phi.Radius), HLLRegisters: cm.m, HLLThreshold: cm.thresh},
	}
}

// readCovrSection reads and validates a kind-1 (or per-shard) "covr"
// section.
func (s *sectionStream) readCovrSection() (*coverMeta, error) {
	payload, err := s.read("covr")
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	cm := &coverMeta{}
	cm.phi.Radius = int(d.u32())
	cm.dim = int(d.u32())
	cm.n = int(d.u64())
	cm.m = int(d.u32())
	cm.thresh = int(d.u32())
	cm.alpha = d.f64()
	cm.beta = d.f64()
	cm.phi.Seed = d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if cm.phi.Radius < 1 || cm.phi.Radius > covering.MaxRadius {
		return nil, corrupt("covering radius %d outside [1,%d]", cm.phi.Radius, covering.MaxRadius)
	}
	if cm.dim < 1 || cm.dim > maxDim {
		return nil, corrupt("dim %d outside [1,%d]", cm.dim, maxDim)
	}
	if cm.phi.Radius >= cm.dim {
		return nil, corrupt("covering radius %d >= dim %d", cm.phi.Radius, cm.dim)
	}
	if cm.n < 0 || cm.n > 1<<31-1 {
		return nil, corrupt("point count %d outside [0,2^31)", cm.n)
	}
	if cm.m < hll.MinM || cm.m > hll.MaxM || cm.m&(cm.m-1) != 0 {
		return nil, corrupt("HLL registers %d not a power of two in [%d,%d]", cm.m, hll.MinM, hll.MaxM)
	}
	if cm.thresh < 1 {
		return nil, corrupt("HLL threshold %d, want >= 1", cm.thresh)
	}
	if !(cm.alpha > 0) || math.IsInf(cm.alpha, 0) || !(cm.beta > 0) || math.IsInf(cm.beta, 0) {
		return nil, corrupt("cost model (%v, %v) not positive and finite", cm.alpha, cm.beta)
	}
	if !d.need(cm.dim * 4) {
		return nil, d.err
	}
	cm.phi.Map = make([]uint32, cm.dim)
	bits := uint(cm.phi.Radius + 1)
	for i := range cm.phi.Map {
		cm.phi.Map[i] = d.u32()
		if cm.phi.Map[i] >= 1<<bits {
			return nil, corrupt("φ(%d) = %#x outside {0,1}^%d", i, cm.phi.Map[i], bits)
		}
	}
	if err := d.done("covr"); err != nil {
		return nil, err
	}
	return cm, nil
}

// writeCoveringBody writes the "covr", "pnts" and per-table "tabl"
// sections of one covering index, whose map is phi.
func writeCoveringBody(w io.Writer, ix *core.Index[vector.Binary], phi *covering.Phi) error {
	if err := writeCovrSection(w, ix, phi); err != nil {
		return err
	}
	im := &indexMeta{dim: len(phi.Map), n: ix.N()}
	var e enc
	if err := writeBinaryPoints(&e, im, func(i int) vector.Binary { return ix.Point(int32(i)) }); err != nil {
		return err
	}
	if err := writeSection(w, "pnts", e.b); err != nil {
		return err
	}
	for t := 0; t < ix.L(); t++ {
		e.b = e.b[:0]
		if err := writeBuckets(&e, ix.Tables().SortedBuckets(t), ix.N()); err != nil {
			return err
		}
		if err := writeSection(w, "tabl", e.b); err != nil {
			return err
		}
	}
	return nil
}

// readCoveringBody reads one covering index's sections and reassembles
// it without re-hashing.
func readCoveringBody(ss *sectionStream) (*core.Index[vector.Binary], *coverMeta, error) {
	cm, err := ss.readCovrSection()
	if err != nil {
		return nil, nil, err
	}
	im := cm.im()
	payload, err := ss.read("pnts")
	if err != nil {
		return nil, nil, err
	}
	d := &dec{b: payload}
	points, err := readBinaryPoints(d, im)
	if err != nil {
		return nil, nil, err
	}
	if err := d.done("pnts"); err != nil {
		return nil, nil, err
	}
	slabs := make([]*lsh.Slab, covering.NumTables(cm.phi.Radius))
	for t := range slabs {
		payload, err = ss.read("tabl")
		if err != nil {
			return nil, nil, err
		}
		d = &dec{b: payload}
		slab, err := readBuckets(d, im)
		if err != nil {
			return nil, nil, err
		}
		if err := d.done("tabl"); err != nil {
			return nil, nil, err
		}
		slabs[t] = slab
	}
	ix, err := covering.Restore(points, &cm.phi, slabs, covering.Config{
		HLLRegisters: cm.m,
		HLLThreshold: cm.thresh,
		Cost:         core.CostModel{Alpha: cm.alpha, Beta: cm.beta},
	})
	if err != nil {
		return nil, nil, corrupt("restoring covering index: %v", err)
	}
	return ix, cm, nil
}

// coverPublicMeta summarizes one covering index's "covr" section.
func coverPublicMeta(cm *coverMeta) Meta {
	return Meta{
		Metric:      MetricHamming,
		Dim:         cm.dim,
		N:           cm.n,
		Radius:      float64(cm.phi.Radius),
		L:           covering.NumTables(cm.phi.Radius),
		CoverRadius: cm.phi.Radius,
		Seed:        cm.phi.Seed,
	}
}

// writeCoverMarker writes the structure-level "covr" section of a
// sharded covering snapshot: the radius every shard shares.
func writeCoverMarker(w io.Writer, radius int) error {
	var e enc
	e.u32(uint32(radius))
	return writeSection(w, "covr", e.b)
}

// readCoverMarker reads an optional structure-level "covr" marker at the
// stream's current position and returns the shared covering radius (0
// when the next section is something else — a classic or multi-probe
// sharded snapshot).
func (s *sectionStream) readCoverMarker() (int, error) {
	d, err := s.optional("covr")
	if d == nil {
		return 0, err
	}
	radius := int(d.u32())
	if err := d.done("covr"); err != nil {
		return 0, err
	}
	if radius < 1 || radius > covering.MaxRadius {
		return 0, corrupt("covering radius %d outside [1,%d]", radius, covering.MaxRadius)
	}
	return radius, nil
}
