package shard

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkKernelMergeLive times the shard merge's tombstone filter over
// a 15 000-id answer from a 67 000-id space with 5 % of it deleted (a
// corel-readwrite follower between compactions): "map" is the filter
// over a map of the tombstones it replaced, "bits" appendLive; ns per
// id.
func BenchmarkKernelMergeLive(b *testing.B) {
	const n, span = 15000, 67000
	r := rng.New(35)
	s := &Sharded[struct{}]{tombs: makeIDBits(span)}
	tombs := map[int32]struct{}{}
	for range span / 20 {
		id := int32(r.Intn(span))
		tombs[id] = struct{}{}
		if s.tombs.add(id) {
			s.nTombs++
		}
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(r.Intn(span))
	}
	out := make([]int32, 0, n)
	b.Run("map", func(b *testing.B) {
		for b.Loop() {
			out = out[:0]
			for _, id := range ids {
				if _, dead := tombs[id]; !dead {
					out = append(out, id)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/id")
	})
	b.Run("bits", func(b *testing.B) {
		for b.Loop() {
			out = s.appendLive(out[:0], ids)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/id")
	})
}
