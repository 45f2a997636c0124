// Package root holds the //dp:noalloc roots whose verdicts depend on
// facts exported by mid, which in turn depend on facts from leaf.
package root

import (
	"chain/leaf"
	"chain/mid"
)

//dp:noalloc
func Hot(xs []float64) float64 {
	return mid.Total(xs)
}

//dp:noalloc
func Bad(n int) float64 {
	buf := mid.Wrap(n) // want `call to mid.Wrap may allocate: call to leaf.Alloc may allocate: make allocates at `
	return buf[0]
}

// Explicit instantiations of another package's generic functions resolve
// to their declarations like plain calls do.
//
//dp:noalloc
func HotGeneric(xs []float64) float64 {
	return leaf.SumOf[float64](xs) + leaf.Scale[float64, int](xs[0], 2)
}

//dp:noalloc
func BadGeneric(n int) []float32 {
	return leaf.AllocOf[float32](n) // want `call to leaf.AllocOf may allocate: make allocates at `
}
