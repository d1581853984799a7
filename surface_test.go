package hybridlsh

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/rng"
	"repro/internal/storetest"
)

// The pinned surface: one case per way the package builds an index, each
// over a seeded fixed input, pinning the SHA-256 of the index's snapshot
// bytes and storetest.HashIDs of its answers to a fixed query set. The
// constants hold the snapshot layout, the hash draws and the reported
// ids still; a change to how a metric, mode or sharding is wired that
// alters any of them fails here.

// pinDense returns n points around 8 Gaussian centers in R^dim (spread
// 0.05); unit normalizes each point (for angular data).
func pinDense(n, dim int, seed uint64, unit bool) []Dense {
	r := rng.New(seed)
	centers := make([]Dense, 8)
	for i := range centers {
		c := make(Dense, dim)
		for j := range c {
			c[j] = float32(r.Normal())
		}
		centers[i] = c
	}
	pts := make([]Dense, n)
	for i := range pts {
		p := make(Dense, dim)
		for j := range p {
			p[j] = centers[i%len(centers)][j] + float32(0.05*r.Normal())
		}
		if unit {
			p.Normalize()
		}
		pts[i] = p
	}
	return pts
}

// pinBinary returns n dim-bit points, each one of 8 random prototypes
// (density set: bits set with probability density) with flips bits
// flipped.
func pinBinary(n, dim int, seed uint64, density float64, flips int) []Binary {
	r := rng.New(seed)
	protos := make([]Binary, 8)
	for i := range protos {
		b := NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < density {
				b.SetBit(j, true)
			}
		}
		protos[i] = b
	}
	pts := make([]Binary, n)
	for i := range pts {
		b := protos[i%len(protos)].Clone()
		for f := 0; f < flips; f++ {
			b.FlipBit(r.Intn(dim))
		}
		pts[i] = b
	}
	return pts
}

// pinSparse returns n points of 8 sparse prototypes (10 of dim
// coordinates each) with every value jittered by 10%.
func pinSparse(n, dim int, seed uint64) []Sparse {
	r := rng.New(seed)
	idx := make([][]int32, 8)
	for i := range idx {
		for _, j := range r.Sample(dim, 10) {
			idx[i] = append(idx[i], int32(j))
		}
	}
	pts := make([]Sparse, n)
	for i := range pts {
		ix := idx[i%len(idx)]
		val := make([]float32, len(ix))
		for k := range val {
			val[k] = float32(1 + 0.1*r.Normal())
		}
		pts[i] = NewSparseVector(dim, ix, val)
	}
	return pts
}

// pinAnswers queries every point of queries and returns the id sets.
func pinAnswers[P any](query func(P) []int32, queries []P) [][]int32 {
	out := make([][]int32, len(queries))
	for i, q := range queries {
		out[i] = query(q)
	}
	return out
}

// pinIndex is what a pinned case needs of a built index.
type pinIndex[P, S any] interface {
	io.WriterTo
	Query(q P) ([]int32, S)
}

// pinBuilt snapshots ix and answers queries on it, and checks that the
// snapshot opens (through open) to an index that answers alike and
// writes the same bytes.
func pinBuilt[P, S any](ix pinIndex[P, S], err error, queries []P, open func(io.Reader) (pinIndex[P, S], error)) ([]byte, [][]int32, error) {
	if err != nil {
		return nil, nil, err
	}
	snapshot := func(ix pinIndex[P, S]) ([]byte, [][]int32, error) {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			return nil, nil, err
		}
		return buf.Bytes(), pinAnswers(func(q P) []int32 { ids, _ := ix.Query(q); return ids }, queries), nil
	}
	snap, answers, err := snapshot(ix)
	if err != nil {
		return nil, nil, err
	}
	loaded, err := open(bytes.NewReader(snap))
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	resnap, reanswers, err := snapshot(loaded)
	switch {
	case err != nil:
		return nil, nil, err
	case !bytes.Equal(resnap, snap):
		return nil, nil, errors.New("the opened index writes other snapshot bytes")
	case storetest.HashIDs(reanswers) != storetest.HashIDs(answers):
		return nil, nil, errors.New("the opened index answers otherwise")
	}
	return snap, answers, nil
}

// pinLadder answers queries on a ladder at three radii per query.
func pinLadder[P any](l *Ladder[P], err error, queries []P, radii []float64) ([]byte, [][]int32, error) {
	if err != nil {
		return nil, nil, err
	}
	var out [][]int32
	for _, r := range radii {
		for _, q := range queries {
			ids, _, err := l.Query(q, r)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, ids)
		}
	}
	return nil, out, nil
}

func TestPinnedSurface(t *testing.T) {
	const n, dim, bits = 400, 8, 64
	opts := []Option{WithSeed(21), WithTables(8), WithHLLRegisters(16), WithHLLThreshold(4)}
	sharded := append(opts[:len(opts):len(opts)], WithShards(3))

	dense := pinDense(n+30, dim, 1, false)
	dData, dQueries := dense[:n], dense[n:]
	unit := pinDense(n+30, dim, 2, true)
	uData, uQueries := unit[:n], unit[n:]
	ham := pinBinary(n+30, bits, 3, 0.5, 5)
	hData, hQueries := ham[:n], ham[n:]
	sets := pinBinary(n+30, bits, 4, 0.25, 2)
	jData, jQueries := sets[:n], sets[n:]
	sparse := pinSparse(n+30, 50, 5)
	sData, sQueries := sparse[:n], sparse[n:]

	cases := []struct {
		name     string
		build    func() ([]byte, [][]int32, error)
		snapshot string // hex SHA-256 of the snapshot; "" for a ladder
		ids      uint64
	}{
		{"l2", func() ([]byte, [][]int32, error) {
			ix, err := New(L2, dData, 0.2, opts...)
			return pinBuilt(ix, err, dQueries, func(r io.Reader) (pinIndex[Dense, QueryStats], error) { return Open(L2, r) })
		}, "b85a00cab4a7d1080e3e24ae64152a26bfc4a365d2621ee7708ae9755981ff25", 0x5139b83014ef7b6},
		{"l1", func() ([]byte, [][]int32, error) {
			ix, err := New(L1, dData, 0.5, opts...)
			return pinBuilt(ix, err, dQueries, func(r io.Reader) (pinIndex[Dense, QueryStats], error) { return Open(L1, r) })
		}, "f836e1410c7a47f758fd806da0656497987975666fee40dae28f1e909ff23ba5", 0x8d38bcceecb8564d},
		{"angular", func() ([]byte, [][]int32, error) {
			ix, err := New(Angular, uData, 0.02, opts...)
			return pinBuilt(ix, err, uQueries, func(r io.Reader) (pinIndex[Dense, QueryStats], error) { return Open(Angular, r) })
		}, "77d13575bb4c9246a6e4ec6fe4faad185ca732bba03382e6c74aa954d3de4ee5", 0xc5bf1d5f8b999fa5},
		{"cosine", func() ([]byte, [][]int32, error) {
			ix, err := New(Cosine, sData, 0.005, opts...)
			return pinBuilt(ix, err, sQueries, func(r io.Reader) (pinIndex[Sparse, QueryStats], error) { return Open(Cosine, r) })
		}, "033cf6c4b2d8995d0e2eddaf2cc8a9e6cfd5a429538a16e6db29d0a2d7d01306", 0x90dc99758a0787aa},
		{"hamming", func() ([]byte, [][]int32, error) {
			ix, err := New(Hamming, hData, 8, opts...)
			return pinBuilt(ix, err, hQueries, func(r io.Reader) (pinIndex[Binary, QueryStats], error) { return Open(Hamming, r) })
		}, "253c52faefa6fc6a266b6de10defbebf231c42f36f5ac359f5f7b7ce73c22a1b", 0xda15fc4f00cff786},
		{"jaccard", func() ([]byte, [][]int32, error) {
			ix, err := New(Jaccard, jData, 0.15, opts...)
			return pinBuilt(ix, err, jQueries, func(r io.Reader) (pinIndex[Binary, QueryStats], error) { return Open(Jaccard, r) })
		}, "6fa19b4f137c9ff237f3bd2d46062f88e5b037f558c34d0488c0c8e6e9860fe7", 0xc10d0ce52a07c066},
		{"multiprobe-l2", func() ([]byte, [][]int32, error) {
			ix, err := New(L2, dData, 0.2, append(opts, WithProbes(6))...)
			return pinBuilt(ix, err, dQueries, func(r io.Reader) (pinIndex[Dense, QueryStats], error) { return Open(L2, r) })
		}, "76043dc24de97bc7915cf3b8b356bb1cd2fcb9a8c7ff4ec80ccadfaa0ba5b1b7", 0xb6f4fb553f8c47b7},
		{"covering-hamming", func() ([]byte, [][]int32, error) {
			ix, err := New(Hamming, hData, 7, append(opts, WithCovering())...)
			return pinBuilt(ix, err, hQueries, func(r io.Reader) (pinIndex[Binary, QueryStats], error) { return Open(Hamming, r) })
		}, "7d36228293ed98e8d72bd90dd487bf8ff4837333bf2f6974a408cce08f76af45", 0xc276e1eb9740065},
		{"sharded-l2", func() ([]byte, [][]int32, error) {
			ix, err := NewSharded(L2, dData, 0.2, sharded...)
			return pinBuilt(ix, err, dQueries, func(r io.Reader) (pinIndex[Dense, ShardedQueryStats], error) { return OpenSharded(L2, r) })
		}, "b04cd20702b931a32a057f031abb13047dedf7952842e35f692cb25a8ee6cb3d", 0x86211d8e9391a3df},
		{"sharded-hamming", func() ([]byte, [][]int32, error) {
			ix, err := NewSharded(Hamming, hData, 8, sharded...)
			return pinBuilt(ix, err, hQueries, func(r io.Reader) (pinIndex[Binary, ShardedQueryStats], error) { return OpenSharded(Hamming, r) })
		}, "6ec0274c5f798ab1da796dbb283531e83f3eb99c421a8757842e179babfbbb4e", 0xf9a0b44b58a287f5},
		{"sharded-multiprobe-l2", func() ([]byte, [][]int32, error) {
			ix, err := NewSharded(L2, dData, 0.2, append(sharded, WithProbes(6))...)
			return pinBuilt(ix, err, dQueries, func(r io.Reader) (pinIndex[Dense, ShardedQueryStats], error) { return OpenSharded(L2, r) })
		}, "d40ee9cef23ffbc1f5c28ff5030322dd7e695d0e377ba87869f2c4743ae9799c", 0xf06724a4b4185d3d},
		{"sharded-covering-hamming", func() ([]byte, [][]int32, error) {
			ix, err := NewSharded(Hamming, hData, 7, append(sharded, WithCovering())...)
			return pinBuilt(ix, err, hQueries, func(r io.Reader) (pinIndex[Binary, ShardedQueryStats], error) {
				return OpenSharded(Hamming, r)
			})
		}, "a5c54579bfd2597deee55b6dd14db6ed32f63703808729509c32834b4ffb8c6c", 0xc276e1eb9740065},
		{"ladder-l2", func() ([]byte, [][]int32, error) {
			l, err := NewLadder(L2, dData, 0.1, 0.4, 2, opts...)
			return pinLadder(l, err, dQueries, []float64{0.1, 0.15, 0.4})
		}, "", 0xb70b27332a587b79},
		{"ladder-hamming", func() ([]byte, [][]int32, error) {
			l, err := NewLadder(Hamming, hData, 2, 8, 2, opts...)
			return pinLadder(l, err, hQueries, []float64{2, 3, 8})
		}, "", 0xd1309812a682301e},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap, answers, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			nonEmpty := 0
			for _, ids := range answers {
				if len(ids) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty == 0 {
				t.Fatal("every answer is empty; the fixture pins nothing")
			}
			got := ""
			if snap != nil {
				sum := sha256.Sum256(snap)
				got = hex.EncodeToString(sum[:])
			}
			if got != c.snapshot {
				t.Errorf("snapshot sha256 = %q, want %q", got, c.snapshot)
			}
			if h := storetest.HashIDs(answers); h != c.ids {
				t.Errorf("HashIDs = %#x, want %#x", h, c.ids)
			}
		})
	}
}
