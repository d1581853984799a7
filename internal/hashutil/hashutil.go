// Package hashutil provides the 64-bit mixing and combining primitives used
// throughout the repository: turning point identifiers into HyperLogLog
// element hashes, and folding concatenated LSH hash values g = (h₁,…,h_k)
// into single bucket keys.
//
// The functions here are deliberately simple, allocation-free and, where it
// matters, well-studied finalizers (murmur3 / splitmix64) whose avalanche
// behaviour is verified in the tests.
package hashutil

// Mix64 applies the splitmix64 finalizer, a fast full-avalanche 64-bit
// mixer: every input bit affects every output bit with probability ≈ 1/2.
// It is a bijection (each step is invertible), which the LSH tables rely
// on: they find buckets and duplicate keys by comparing Mix64 of keys.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Murmur64 applies the murmur3 fmix64 finalizer. It is kept distinct from
// Mix64 so that independent hash streams (e.g. bucket keys vs HLL element
// hashes) never reuse the same function.
func Murmur64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Combine folds a new word into a running 64-bit hash. It is a 64-bit
// variant of boost::hash_combine and is used to reduce the k concatenated
// LSH values of g(x) to a single bucket key.
func Combine(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 12) + (h >> 4)
	return Mix64(h)
}

// HashInts reduces a slice of LSH hash values to one 64-bit bucket key.
// Slices differing in any element or in length map to different keys with
// overwhelming probability.
func HashInts(vs []int64) uint64 {
	h := uint64(len(vs)) * 0x9e3779b97f4a7c15
	for _, v := range vs {
		h = Combine(h, uint64(v))
	}
	return h
}

// HashUint64s reduces a slice of uint64 values to one 64-bit key.
func HashUint64s(vs []uint64) uint64 {
	h := uint64(len(vs)) * 0xc4ceb9fe1a85ec53
	for _, v := range vs {
		h = Combine(h, v)
	}
	return h
}

// ElementHash hashes a point identifier for insertion into a HyperLogLog.
// All HLLs in the system must use the same element hash so that sketches
// built from overlapping buckets merge into a sketch of the union.
func ElementHash(id uint64) uint64 {
	return Murmur64(id + 0x9e3779b97f4a7c15)
}
