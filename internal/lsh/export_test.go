package lsh

// SetForceWide makes every slab built until the returned restore runs
// wide (true) or sized by its n (false), for the external width tests.
func SetForceWide(wide bool) (restore func()) {
	old := forceWide
	forceWide = wide
	return func() { forceWide = old }
}
