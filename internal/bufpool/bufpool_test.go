package bufpool

import "testing"

// TestOversizedBufferIsDropped: one huge answer must not stay pinned in
// the pool, and a recycled buffer must come back empty.
func TestOversizedBufferIsDropped(t *testing.T) {
	big := Get()
	big.B = append(big.B, make([]byte, maxPooled+1)...)
	Put(big)
	small := Get()
	small.Write([]byte("left over"))
	Put(small)
	for i := 0; i < 8; i++ {
		b := Get()
		if len(b.B) != 0 || cap(b.B) > maxPooled {
			t.Fatalf("Get returned len %d cap %d, want an empty buffer of at most %d", len(b.B), cap(b.B), maxPooled)
		}
	}
}
