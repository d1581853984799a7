package replica

import (
	"math"
	"testing"
)

// TestOrderSurvivesCursorWrap presets the round-robin cursor past the
// points where a signed conversion of it goes negative (2³¹ on 32-bit
// hosts, 2⁶³ on 64-bit ones) and checks that order still starts at the
// cursor modulo the member count and names every member once.
func TestOrderSurvivesCursorWrap(t *testing.T) {
	rt := &Router{}
	for _, u := range []string{"a", "b", "c"} {
		m := &member{url: u}
		m.healthy.Store(true)
		rt.members = append(rt.members, m)
	}
	n := uint64(len(rt.members))
	for _, at := range []uint64{1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1} {
		rt.rr.Store(at)
		for step := uint64(0); step < 2; step++ {
			got := rt.order()
			if len(got) != len(rt.members) {
				t.Fatalf("cursor %d: order has %d members, want %d", at+step, len(got), len(rt.members))
			}
			start := int((at + step) % n)
			for i, m := range got {
				if want := rt.members[(start+i)%len(rt.members)]; m != want {
					t.Fatalf("cursor %d: order[%d] = %s, want %s", at+step, i, m.url, want.url)
				}
			}
		}
	}
}
