package hybridlsh

import (
	"io"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/multiprobe"
	"repro/internal/persist"
	"repro/internal/shard"
)

// Index persistence. Every index type serializes to the versioned
// hybridlsh-snap/v1 binary snapshot format (magic, format version,
// CRC32-protected sections) via WriteTo, and reloads via the matching
// Read function: points, configuration, every drawn hash function, all
// bucket tables, the per-bucket HyperLogLog registers and the cost
// model are preserved exactly, so a loaded plain index answers queries
// id-for-id identically to the saved one — same hashes, same sketches,
// same hybrid strategy decisions — without re-hashing a single point.
//
// Sharded snapshots additionally preserve each shard's independent hash
// functions and the global id space: tombstoned points are compacted
// out of the stored shards but their ids stay reserved, so deleted ids
// remain deleted (and are never reused) after a reload, and Append
// continues from the saved high-water mark. Compaction shrinks the
// buckets the deleted points occupied, so a reloaded shard may decide a
// borderline query with the other strategy than the live structure
// (which filters tombstones at query time instead); reported sets then
// agree up to the per-point δ guarantee. With no intervening deletes
// the sharded round trip is exact as well.
//
// Multi-probe snapshots additionally record the probe configuration T
// (the format's optional "prob" section); covering snapshots record the
// integer radius and the random map φ (the format's "covr" section,
// which replaces "meta" — a covering index has no LSH family) plus the
// mask-table buckets, so a reload keeps the zero-false-negatives
// guarantee bit for bit. The snapshot decides which kind of index a
// decode produces; each Read function below demands the mode of its
// return type and rejects any other file with a typed error
// (persist.ErrProbeMode / ErrCoverMode) rather than silently dropping or
// inventing T, or rebuilding under different guarantees.
//
// The decoder rejects corrupt, truncated or adversarial input with an
// error (persist.ErrBadMagic / ErrVersion / ErrMetric / ErrProbeMode /
// ErrCorrupt equivalents) rather than panicking; see internal/persist
// and docs/SNAPSHOT_FORMAT.md for the format layout and compatibility
// promise.

// readPlain reads a plain snapshot and demands the given serving mode of
// it (probes: multi-probe, cover: covering, neither: classic); a mismatch
// is persist.ErrProbeMode or persist.ErrCoverMode. The snapshot readers
// themselves dispatch on what the file holds, so the returned store's
// concrete type is the one the mode implies.
func readPlain[P any](r io.Reader, metric string, probes, cover bool) (core.Store[P], error) {
	st, meta, err := persist.Read[P](r, metric)
	if err == nil {
		err = meta.RequireMode(probes, cover)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// readClassic is readPlain for the classic index types.
func readClassic[P any](r io.Reader, metric string) (*core.Index[P], error) {
	st, err := readPlain[P](r, metric, false, false)
	if err != nil {
		return nil, err
	}
	return st.(*core.Index[P]), nil
}

// readSharded is readPlain's sharded counterpart.
func readSharded[P any](r io.Reader, metric string, probes, cover bool) (*shard.Sharded[P], error) {
	sh, meta, err := persist.ReadSharded[P](r, metric)
	if err == nil {
		err = meta.RequireMode(probes, cover)
	}
	if err != nil {
		return nil, err
	}
	return sh, nil
}

// SnapshotFormat names the snapshot wire format the WriteTo methods
// produce. Readers accept exactly this version; incompatible layout
// changes bump it.
const SnapshotFormat = persist.FormatName

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *L2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricL2, ix.Index)
}

// ReadL2Index reloads an L2 index snapshot written by WriteTo.
func ReadL2Index(r io.Reader) (*L2Index, error) {
	ix, err := readClassic[Dense](r, persist.MetricL2)
	if err != nil {
		return nil, err
	}
	return &L2Index{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *L1Index) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricL1, ix.Index)
}

// ReadL1Index reloads an L1 index snapshot written by WriteTo.
func ReadL1Index(r io.Reader) (*L1Index, error) {
	ix, err := readClassic[Dense](r, persist.MetricL1)
	if err != nil {
		return nil, err
	}
	return &L1Index{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *HammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricHamming, ix.Index)
}

// ReadHammingIndex reloads a Hamming index snapshot written by WriteTo.
func ReadHammingIndex(r io.Reader) (*HammingIndex, error) {
	ix, err := readClassic[Binary](r, persist.MetricHamming)
	if err != nil {
		return nil, err
	}
	return &HammingIndex{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *CosineIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricCosine, ix.Index)
}

// ReadCosineIndex reloads a cosine index snapshot written by WriteTo.
func ReadCosineIndex(r io.Reader) (*CosineIndex, error) {
	ix, err := readClassic[Sparse](r, persist.MetricCosine)
	if err != nil {
		return nil, err
	}
	return &CosineIndex{ix}, nil
}

// WriteTo writes a snapshot of the index; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *JaccardIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricJaccard, ix.Index)
}

// ReadJaccardIndex reloads a Jaccard index snapshot written by WriteTo.
func ReadJaccardIndex(r io.Reader) (*JaccardIndex, error) {
	ix, err := readClassic[Binary](r, persist.MetricJaccard)
	if err != nil {
		return nil, err
	}
	return &JaccardIndex{ix}, nil
}

// WriteTo writes a snapshot of the index, including the family's
// Monte-Carlo-calibrated collision-probability curve; it implements
// io.WriterTo. The index must not be appended to concurrently.
func (ix *AngularIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricAngular, ix.Index)
}

// ReadAngularIndex reloads an angular (cross-polytope) index snapshot
// written by WriteTo; the calibrated curve is restored rather than
// re-measured.
func ReadAngularIndex(r io.Reader) (*AngularIndex, error) {
	ix, err := readClassic[Dense](r, persist.MetricAngular)
	if err != nil {
		return nil, err
	}
	return &AngularIndex{ix}, nil
}

// WriteTo writes a snapshot of the index, including the probe
// configuration (the snapshot format's optional "prob" section), so a
// reload probes identical bucket sequences; it implements io.WriterTo.
// The index must not be appended to concurrently.
func (ix *MultiProbeL2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricL2, ix.Index)
}

// ReadMultiProbeL2Index reloads a multi-probe L2 index snapshot written
// by WriteTo. Plain (probe-less) snapshots are rejected rather than
// silently assigned a default T.
func ReadMultiProbeL2Index(r io.Reader) (*MultiProbeL2Index, error) {
	st, err := readPlain[Dense](r, persist.MetricL2, true, false)
	if err != nil {
		return nil, err
	}
	return &MultiProbeL2Index{st.(*multiprobe.Index)}, nil
}

// WriteTo writes a snapshot of the index, including the covering
// parameters — the integer radius and the drawn map φ (the snapshot
// format's "covr" section) — so a reload keeps the zero-false-negatives
// guarantee bit for bit; it implements io.WriterTo. The index must not
// be appended to concurrently.
func (ix *CoveringHammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, persist.MetricHamming, ix.Index)
}

// ReadCoveringHammingIndex reloads a covering index snapshot written by
// WriteTo. Plain hybrid snapshots are rejected rather than silently
// rebuilt under different guarantees.
func ReadCoveringHammingIndex(r io.Reader) (*CoveringHammingIndex, error) {
	st, err := readPlain[Binary](r, persist.MetricHamming, false, true)
	if err != nil {
		return nil, err
	}
	return &CoveringHammingIndex{st.(*covering.Index)}, nil
}

// WriteTo writes a snapshot of the sharded index; it implements
// io.WriterTo. It takes a consistent view (appends block for the
// duration, queries keep flowing) and compacts tombstoned points out of
// the snapshot while keeping their ids reserved.
func (s *ShardedL2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, persist.MetricL2, s.Sharded)
}

// ReadShardedL2Index reloads a sharded L2 snapshot written by WriteTo.
// Multi-probe sharded snapshots are rejected (use
// ReadShardedMultiProbeL2Index so the probe configuration is kept).
func ReadShardedL2Index(r io.Reader) (*ShardedL2Index, error) {
	sh, err := readSharded[Dense](r, persist.MetricL2, false, false)
	if err != nil {
		return nil, err
	}
	return &ShardedL2Index{sh}, nil
}

// WriteTo writes a snapshot of the sharded multi-probe index, including
// the shared probe configuration; see (*ShardedL2Index).WriteTo for the
// consistency guarantees.
func (s *ShardedMultiProbeL2Index) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, persist.MetricL2, s.Sharded)
}

// ReadShardedMultiProbeL2Index reloads a sharded multi-probe L2
// snapshot written by WriteTo: per-shard hash functions, buckets,
// sketches and the probe configuration are restored exactly, so answers
// are id-for-id identical to the saved index.
func ReadShardedMultiProbeL2Index(r io.Reader) (*ShardedMultiProbeL2Index, error) {
	sh, err := readSharded[Dense](r, persist.MetricL2, true, false)
	if err != nil {
		return nil, err
	}
	return &ShardedMultiProbeL2Index{sh}, nil
}

// WriteTo writes a snapshot of the sharded index; see
// (*ShardedL2Index).WriteTo.
func (s *ShardedHammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, persist.MetricHamming, s.Sharded)
}

// ReadShardedHammingIndex reloads a sharded Hamming snapshot written by
// WriteTo. Covering sharded snapshots are rejected (use
// ReadShardedCoveringHammingIndex so the guarantee-carrying φ tables are
// kept).
func ReadShardedHammingIndex(r io.Reader) (*ShardedHammingIndex, error) {
	sh, err := readSharded[Binary](r, persist.MetricHamming, false, false)
	if err != nil {
		return nil, err
	}
	return &ShardedHammingIndex{sh}, nil
}

// WriteTo writes a snapshot of the sharded covering index, including
// every shard's covering parameters; see (*ShardedL2Index).WriteTo for
// the consistency guarantees.
func (s *ShardedCoveringHammingIndex) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, persist.MetricHamming, s.Sharded)
}

// ReadShardedCoveringHammingIndex reloads a sharded covering snapshot
// written by WriteTo: per-shard φ maps, buckets, sketches and the shared
// radius are restored exactly, so answers are id-for-id identical to the
// saved index and the zero-false-negatives guarantee survives the round
// trip. Classic sharded Hamming snapshots are rejected (use
// ReadShardedHammingIndex).
func ReadShardedCoveringHammingIndex(r io.Reader) (*ShardedCoveringHammingIndex, error) {
	sh, err := readSharded[Binary](r, persist.MetricHamming, false, true)
	if err != nil {
		return nil, err
	}
	return &ShardedCoveringHammingIndex{sh}, nil
}
