package xtestfix_test

import "xtestfix"

var _ = 0 /* want `unknown //dp: directive "bogus"` */ //dp:bogus

//dp:noalloc
func Hot(n int) float64 {
	return xtestfix.Alloc(n)[0] // want `call to xtestfix.Alloc may allocate: make allocates at xtestfix.go:`
}
