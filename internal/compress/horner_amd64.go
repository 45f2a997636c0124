//go:build amd64 && !purego

package compress

import (
	"unsafe"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// hornerArgs is the argument block of the vectorized Horner kernels. The
// field offsets are hard-coded in horner_amd64.s (HA_* defines) and
// asserted by TestHornerArgsLayout. u and invH are always float64; the
// f32 kernel narrows them once per call, which reproduces the float32
// values of the scalar path exactly (float64(float32) round-trips).
type hornerArgs struct {
	cs   unsafe.Pointer // segment slab base: six m-element slabs c0..c5
	g    unsafe.Pointer // value row (m elements)
	dg   unsafe.Pointer // derivative row (m elements)
	m    uintptr        // channel count = slab stride
	u    float64
	invH float64
}

// hornerCover runs the vectorized Horner sweep over the leading channels
// of one segment row and returns how many channels it covered; the caller
// finishes the remainder with the scalar recursion. The AVX-512 kernels
// cover all m channels (the last chunk masked); the AVX2 kernels cover
// the lane multiple (possibly 0). The kernels use plain mul/add — the same
// two roundings per step as the scalar code — so covered lanes are
// bit-identical to the scalar path for every input, u = 0 knot exactness
// included.
func hornerCover[T tensor.Float](cs []T, u, invH T, g, dg []T, m int) int {
	fam := cpufeat.Active()
	if fam != cpufeat.AVX2 && fam != cpufeat.AVX512 {
		return 0
	}
	var z T
	cover := m
	if fam == cpufeat.AVX2 {
		cover = m &^ (32/int(unsafe.Sizeof(z)) - 1)
	}
	if cover == 0 {
		return 0
	}
	args := hornerArgs{
		cs: unsafe.Pointer(&cs[0]), g: unsafe.Pointer(&g[0]), dg: unsafe.Pointer(&dg[0]),
		m: uintptr(m), u: float64(u), invH: float64(invH),
	}
	switch {
	case fam == cpufeat.AVX512 && unsafe.Sizeof(z) == 8:
		hornerRowF64AVX512(&args)
	case fam == cpufeat.AVX512:
		hornerRowF32AVX512(&args)
	case unsafe.Sizeof(z) == 8:
		hornerRowF64AVX2(&args)
	default:
		hornerRowF32AVX2(&args)
	}
	return cover
}

//go:noescape
func hornerRowF64AVX2(args *hornerArgs)

//go:noescape
func hornerRowF32AVX2(args *hornerArgs)

//go:noescape
func hornerRowF64AVX512(args *hornerArgs)

//go:noescape
func hornerRowF32AVX512(args *hornerArgs)
