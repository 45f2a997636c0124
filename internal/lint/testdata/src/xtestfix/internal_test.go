package xtestfix

var _ = 0 /* want `unknown //dp: directive "bogus"` */ //dp:bogus

//dp:noalloc
func hot(n int) float64 {
	return Alloc(n)[0] // want `call to Alloc may allocate: make allocates at `
}
