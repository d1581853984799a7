package lsh

import (
	"encoding/binary"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/rng"
	"repro/internal/vector"
)

// refBitSamplingKey is BitSamplingHasher.Key as it was: each sampled
// bit read through Binary.Bit (which panics on a coordinate outside the
// point), packed MSB-first into 64-bit words that are folded into the
// key as they fill, the last partial word after them.
func refBitSamplingKey(bits []int, p vector.Binary) uint64 {
	var key, acc uint64
	nacc := 0
	flushed := false
	for _, idx := range bits {
		acc <<= 1
		if p.Bit(idx) {
			acc |= 1
		}
		if nacc++; nacc == 64 {
			key = hashutil.Combine(key, acc)
			acc, nacc = 0, 0
			flushed = true
		}
	}
	if nacc > 0 || !flushed {
		key = hashutil.Combine(key, acc)
	}
	return key
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// FuzzBitSamplingKeys holds Key, alone and through keysOf as Build and
// BlockKeys call it, to refBitSamplingKey: dimensions 1–200, k = 1–130
// (so a key folds up to three words, and exactly one or two full ones),
// sampled coordinates repeated, 1–80 points whose words come from the
// fuzzer's bytes, then from seed. When the seed says so, one point is a
// coordinate too short for the hasher: the reference, Key and keysOf
// must all panic on it.
func FuzzBitSamplingKeys(f *testing.F) {
	f.Add(uint64(1), uint16(0x0a3f), []byte{})
	f.Add(uint64(2), uint16(0x3f3f), []byte{0xff, 0, 0x0f, 0xf0, 1, 2, 3, 4})
	f.Add(uint64(3), uint16(0x80c7), []byte{0xaa, 0x55})
	f.Add(uint64(0x101), uint16(0x4001), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, data []byte) {
		r := rng.New(seed)
		dim, k := 1+int(shape&0xff)%200, 1+int(shape>>8)%130
		coords := make([]int, k)
		for i := range coords {
			if i > 0 && r.Intn(4) == 0 {
				coords[i] = coords[r.Intn(i)] // a repeated coordinate
			} else {
				coords[i] = r.Intn(dim)
			}
		}
		h, err := RestoreBitSamplingHasher(dim, coords)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]vector.Binary, 1+int(seed>>1%80))
		for i := range pts {
			pts[i] = vector.NewBinary(dim)
			for w := range pts[i].Words {
				if len(data) >= 8 {
					pts[i].Words[w] = binary.LittleEndian.Uint64(data)
					data = data[8:]
				} else {
					pts[i].Words[w] = r.Uint64()
				}
			}
			if tail := dim % 64; tail != 0 { // zero-padded, as NewBinary leaves it
				pts[i].Words[len(pts[i].Words)-1] &= 1<<tail - 1
			}
		}
		short := seed&1 == 1 && h.top > 0
		if short {
			at := r.Intn(len(pts))
			pts[at] = vector.NewBinary(1 + r.Intn(h.top)) // Dim ≤ the largest coordinate
			if !panics(func() { refBitSamplingKey(coords, pts[at]) }) {
				t.Fatal("test setup: the reference keyed a point too short for it")
			}
			if !panics(func() { h.Key(pts[at]) }) {
				t.Fatalf("dim %d k %d: Key did not panic on a point of %d bits (largest coordinate %d)", dim, k, pts[at].Dim, h.top)
			}
		}
		got := make([]uint64, len(pts))
		var s KeyScratch
		s.begin(pts)
		if did := panics(func() { keysOf[vector.Binary](h, pts, got, &s) }); did != short {
			t.Fatalf("dim %d k %d: keysOf panicked %v on a block with a short point %v", dim, k, did, short)
		}
		if short {
			return
		}
		for i, p := range pts {
			want := refBitSamplingKey(coords, p)
			if got[i] != want {
				t.Fatalf("dim %d k %d: keysOf's key of point %d %#x, reference %#x", dim, k, i, got[i], want)
			}
			if key := h.Key(p); key != want {
				t.Fatalf("dim %d k %d: Key of point %d %#x, reference %#x", dim, k, i, key, want)
			}
		}
	})
}
