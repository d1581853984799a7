package persist

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/shard"
	"repro/internal/vector"
)

// FuzzReadSnapshot throws arbitrary bytes at every decoder entry point
// and requires them to return an error or a valid index — never panic,
// and never allocate more than the input can justify (every count in
// the format is validated against the bytes actually present before any
// allocation; a violation shows up here as an OOM or a timeout).
//
// The corpus is seeded with valid snapshots of several metrics and a
// sharded snapshot, plus truncated and bit-flipped variants, so the
// fuzzer starts deep inside the format instead of fighting the magic
// check.
func FuzzReadSnapshot(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every reader must survive every input. Successful decodes are
		// exercised with one query so a structurally valid but
		// semantically hostile snapshot (ids, sketches, hashers) cannot
		// smuggle a panic past decode time.
		if ix, _, err := readIndex[vector.Dense](bytes.NewReader(data), MetricL2); err == nil {
			q := make(vector.Dense, dimOf(ix))
			ix.Query(q)
		}
		if ix, _, err := readIndex[vector.Dense](bytes.NewReader(data), MetricAngular); err == nil {
			q := make(vector.Dense, dimOf(ix))
			ix.Query(q)
		}
		if ix, _, err := readIndex[vector.Binary](bytes.NewReader(data), MetricHamming); err == nil {
			ix.Query(vector.NewBinary(binDimOf(ix)))
		}
		if ix, _, err := readIndex[vector.Binary](bytes.NewReader(data), MetricJaccard); err == nil {
			ix.Query(vector.NewBinary(binDimOf(ix)))
		}
		if ix, _, err := readIndex[vector.Sparse](bytes.NewReader(data), MetricCosine); err == nil {
			ix.Query(vector.Sparse{Dim: ix.Dim()})
		}
		if ix, meta, err := readMultiProbe(bytes.NewReader(data), MetricL2); err == nil {
			ix.Query(make(vector.Dense, meta.Dim))
		}
		if sh, meta, err := ReadSharded[vector.Dense](bytes.NewReader(data), MetricL2); err == nil {
			sh.Query(make(vector.Dense, meta.Dim))
		}
		if sh, meta, err := ReadSharded[vector.Binary](bytes.NewReader(data), MetricHamming); err == nil {
			sh.Query(vector.NewBinary(meta.Dim))
		}
		if ix, meta, err := readCovering(bytes.NewReader(data)); err == nil {
			ix.Query(vector.NewBinary(meta.Dim))
		}
		if sh, meta, err := readShardedCovering(bytes.NewReader(data)); err == nil {
			sh.Query(vector.NewBinary(meta.Dim))
		}
	})
}

// dimOf recovers a dense index's dimension for query construction.
func dimOf(ix *core.Index[vector.Dense]) int {
	if d, ok := ix.Family().(interface{ Dim() int }); ok {
		return d.Dim()
	}
	return 1
}

func binDimOf(ix *core.Index[vector.Binary]) int {
	if d, ok := ix.Family().(interface{ Dim() int }); ok {
		return d.Dim()
	}
	return 1
}

func seedCorpus(f *testing.F) {
	f.Helper()
	add := func(b []byte) {
		f.Add(b)
		// Truncations land the fuzzer mid-section.
		for _, cut := range []int{1, 2, 4} {
			if len(b) > cut {
				f.Add(b[:len(b)/cut])
			}
		}
		// A few deterministic bit flips land it past the CRC fast-fail.
		for _, off := range []int{0, len(magic), len(magic) + 4, len(b) / 2, len(b) - 2} {
			if off >= 0 && off < len(b) {
				mut := append([]byte(nil), b...)
				mut[off] ^= 0x80
				f.Add(mut)
			}
		}
	}

	mkCfg := func() core.Config[vector.Dense] {
		return core.Config[vector.Dense]{
			Family:       lsh.NewPStableL2(4, 0.8),
			Distance:     distance.L2,
			Radius:       0.4,
			L:            3,
			HLLRegisters: 16,
			HLLThreshold: 2,
			Seed:         1,
		}
	}

	// Plain L2.
	if ix, err := core.NewIndex(denseData(24, 4, 1), mkCfg()); err == nil {
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricL2, ix); err == nil {
			add(buf.Bytes())
		}
	}
	// Plain Hamming.
	hcfg := core.Config[vector.Binary]{
		Family:       lsh.NewBitSampling(32),
		Distance:     distance.Hamming,
		Radius:       6,
		L:            3,
		HLLRegisters: 16,
		HLLThreshold: 2,
		Seed:         2,
	}
	if ix, err := core.NewIndex(binaryData(24, 32, 2), hcfg); err == nil {
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricHamming, ix); err == nil {
			add(buf.Bytes())
		}
	}
	// Plain cosine (sparse points).
	ccfg := core.Config[vector.Sparse]{
		Family:       lsh.NewSimHashCosine(24),
		Distance:     distance.Cosine,
		Radius:       0.25,
		L:            3,
		HLLRegisters: 16,
		HLLThreshold: 2,
		Seed:         3,
	}
	if ix, err := core.NewIndex(sparseData(24, 24, 5, 3), ccfg); err == nil {
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricCosine, ix); err == nil {
			add(buf.Bytes())
		}
	}
	// Quantized L2 (exercises the optional "quan" section and the
	// SQ8 refit on hydrate).
	qcfg := mkCfg()
	qcfg.Store = pointstore.DenseL2Builder(pointstore.ModeSQ8)
	if ix, err := core.NewIndex(denseData(24, 4, 10), qcfg); err == nil {
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricL2, ix); err == nil {
			add(buf.Bytes())
		}
	}
	// Multi-probe L2 (exercises the optional "prob" section).
	mcfg := mkCfg()
	mcfg.Probes = 7
	if mp, err := core.NewIndex(denseData(24, 4, 6), mcfg); err == nil {
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricL2, mp); err == nil {
			add(buf.Bytes())
		}
	}
	// Sharded L2 with tombstones (exercises smet/tomb/sids paths).
	sh, err := shard.New(denseData(24, 4, 4), 3, 5, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		c := mkCfg()
		c.Seed = seed
		return core.NewIndex(pts, c)
	})
	if err == nil {
		sh.Delete([]int32{1, 5, 9})
		var buf bytes.Buffer
		if _, err := WriteSharded(&buf, MetricL2, sh); err == nil {
			add(buf.Bytes())
		}
	}
	// Sharded multi-probe L2 (structure-level "prob" section).
	shmp, err := shard.New(denseData(24, 4, 7), 2, 9, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		c := mkCfg()
		c.Seed = seed
		c.Probes = 5
		return core.NewIndex(pts, c)
	})
	if err == nil {
		shmp.Delete([]int32{2, 6})
		var buf bytes.Buffer
		if _, err := WriteSharded(&buf, MetricL2, shmp); err == nil {
			add(buf.Bytes())
		}
	}
	// Plain covering (exercises the "covr" section and bucket-only
	// tables).
	if ix, err := covering.New(binaryData(24, 32, 8), 2, covering.Config{
		HLLRegisters: 16, HLLThreshold: 2, Seed: 8,
	}); err == nil {
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricHamming, ix); err == nil {
			add(buf.Bytes())
		}
	}
	// Sharded covering with tombstones (structure-level "covr" marker).
	shcov, err := shard.New(binaryData(24, 32, 9), 2, 11, func(pts []vector.Binary, seed uint64) (core.Store[vector.Binary], error) {
		return covering.New(pts, 2, covering.Config{HLLRegisters: 16, HLLThreshold: 2, Seed: seed})
	})
	if err == nil {
		shcov.Delete([]int32{3, 8})
		var buf bytes.Buffer
		if _, err := WriteSharded(&buf, MetricHamming, shcov); err == nil {
			add(buf.Bytes())
		}
	}
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte(magic))
	hdr := []byte(magic)
	hdr = append(hdr, 1, 0, 0, 0, kindIndex)
	f.Add(hdr)
}
