package lsh

import "slices"

// SetForceWide makes every slab built until the returned restore runs
// wide (true) or sized by its n (false), for the external width tests.
func SetForceWide(wide bool) (restore func()) {
	old := forceWide
	forceWide = wide
	return func() { forceWide = old }
}

// SlabDiff names the first part of table j in which got's frozen slab
// differs from want's table refrozen — its slab and overlay folded into
// one slab in hash order, which is how a snapshot load must lay the
// table out — and returns "" when they are equal: heads, directory, id
// width, ids and sketch registers. got must hold no overlay.
func SlabDiff[P any](got, want *Tables[P], j int) string {
	g := &got.tables[j]
	if len(g.over) != 0 {
		return "overlay"
	}
	b := want.tables[j].rebuild(nil, want.params, want.n, &want.ents)
	return slabDiff(&g.slab, &b)
}

// slabDiff names the first part in which slab a differs from b, or
// returns "".
func slabDiff(a, b *Slab) string {
	switch {
	case !slices.Equal(a.heads, b.heads):
		return "heads"
	case a.shift != b.shift || !slices.Equal(a.dir, b.dir):
		return "dir"
	case (a.narrow != nil) != (b.narrow != nil):
		return "width"
	case !slices.Equal(a.narrow, b.narrow) || !slices.Equal(a.wide, b.wide):
		return "ids"
	case a.m != b.m || !slices.Equal(a.regs, b.regs):
		return "regs"
	}
	return ""
}
