package hybridlsh

// NewShardedL2Index is NewSharded(L2, points, r, opts...).
//
// Deprecated: use NewSharded; this name stays for the load benchmark's
// separate module, which builds through it.
func NewShardedL2Index(points []Dense, r float64, opts ...Option) (*Sharded[Dense], error) {
	return NewSharded(L2, points, r, opts...)
}

// NewShardedHammingIndex is NewSharded(Hamming, points, r, opts...).
//
// Deprecated: use NewSharded; this name stays for the load benchmark's
// separate module, which builds through it.
func NewShardedHammingIndex(points []Binary, r float64, opts ...Option) (*Sharded[Binary], error) {
	return NewSharded(Hamming, points, r, opts...)
}
