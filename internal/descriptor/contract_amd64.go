//go:build amd64 && !purego

package descriptor

import (
	"unsafe"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// contractArgs is the argument block of the contraction kernels. The
// field offsets are hard-coded in contract_amd64.s (CA_* defines) and
// asserted by TestContractArgsLayout.
type contractArgs struct {
	g    unsafe.Pointer // tile values: nk rows of m
	dg   unsafe.Pointer // tile derivatives: nk rows of m (backward)
	rows unsafe.Pointer // the tile's environment rows: nk x 4 (forward)
	t    unsafe.Pointer // forward: the 4 x m accumulator; backward: 4 x m dT
	ab   unsafe.Pointer // nk x 8 partial sums, overwritten (backward)
	nk   uintptr        // rows in the tile, >= 1
	m    uintptr        // channels = row stride of g, dg and t
}

// fusedCover reports how many leading channels the contraction kernels
// handle under the active family: the lane multiple (8 float32, 4
// float64) when it is AVX2 or AVX-512 — the kernels are AVX2-encoded and
// AVX-512 hosts run them too, cpufeat gates AVX512 on AVX2 — nothing
// otherwise.
func fusedCover[T tensor.Float](m int) int {
	var z T
	switch cpufeat.Active() {
	case cpufeat.AVX2, cpufeat.AVX512:
		return m &^ (32/int(unsafe.Sizeof(z)) - 1)
	case cpufeat.Generic:
	}
	return 0
}

// contractFwdCover runs the vectorized forward contraction of one tile
// over the leading channels and returns how many it covered; the caller
// finishes the rest with contractFwdGo.
func contractFwdCover[T tensor.Float](g, tile []T, nk, m int, acc []T) int {
	cover := fusedCover[T](m)
	if cover == 0 {
		return 0
	}
	args := contractArgs{
		g: unsafe.Pointer(&g[0]), rows: unsafe.Pointer(&tile[0]), t: unsafe.Pointer(&acc[0]),
		nk: uintptr(nk), m: uintptr(m),
	}
	var z T
	if unsafe.Sizeof(z) == 8 {
		contractFwdF64AVX2(&args)
	} else {
		contractFwdF32AVX2(&args)
	}
	return cover
}

// contractBwdCover runs the vectorized backward contraction of one tile
// over the leading channels, overwriting ab[:8*nk] with their partial
// sums, and returns how many channels it covered (0: ab untouched).
func contractBwdCover[T tensor.Float](g, dg, dT []T, nk, m int, ab []T) int {
	cover := fusedCover[T](m)
	if cover == 0 {
		return 0
	}
	args := contractArgs{
		g: unsafe.Pointer(&g[0]), dg: unsafe.Pointer(&dg[0]), t: unsafe.Pointer(&dT[0]), ab: unsafe.Pointer(&ab[0]),
		nk: uintptr(nk), m: uintptr(m),
	}
	var z T
	if unsafe.Sizeof(z) == 8 {
		contractBwdF64AVX2(&args)
	} else {
		contractBwdF32AVX2(&args)
	}
	return cover
}

//go:noescape
func contractFwdF32AVX2(args *contractArgs)

//go:noescape
func contractFwdF64AVX2(args *contractArgs)

//go:noescape
func contractBwdF32AVX2(args *contractArgs)

//go:noescape
func contractBwdF64AVX2(args *contractArgs)

// descArgs is the argument block of the descriptor-product kernels. The
// field offsets are hard-coded in contract_amd64.s (DA_* defines) and
// asserted by TestContractArgsLayout.
type descArgs struct {
	t     unsafe.Pointer // the 4 x m item T (overwritten by the backward)
	d     unsafe.Pointer // m x ax: D (forward, written) or dD (backward)
	buf   unsafe.Pointer // backward scratch, 8·ax elements
	m     uintptr
	ax    uintptr
	scale float64 // backward; the f32 kernel narrows it
}

// descProducts reports whether the product kernels run under the active
// family: AVX-512 only, whose masks cover any ax <= m. On AVX2 and generic
// the Go loops run.
func descProducts(m, ax int) bool {
	return cpufeat.Active() == cpufeat.AVX512 && ax >= 1 && ax <= m
}

// descForwardKernel runs ContractDescriptor on the lanes and reports
// whether it did.
func descForwardKernel[T tensor.Float](t []T, m, ax int, d []T) bool {
	if !descProducts(m, ax) {
		return false
	}
	_, _ = t[4*m-1], d[m*ax-1]
	args := descArgs{t: unsafe.Pointer(&t[0]), d: unsafe.Pointer(&d[0]), m: uintptr(m), ax: uintptr(ax)}
	var z T
	if unsafe.Sizeof(z) == 8 {
		descForwardF64AVX512(&args)
	} else {
		descForwardF32AVX512(&args)
	}
	return true
}

// descBackwardKernel runs ContractDescriptorBackward on the lanes and
// reports whether it did.
func descBackwardKernel[T tensor.Float](dD []T, m, ax int, scale T, t, buf []T) bool {
	if !descProducts(m, ax) {
		return false
	}
	_, _, _ = dD[m*ax-1], t[4*m-1], buf[8*ax-1]
	args := descArgs{
		t: unsafe.Pointer(&t[0]), d: unsafe.Pointer(&dD[0]), buf: unsafe.Pointer(&buf[0]),
		m: uintptr(m), ax: uintptr(ax), scale: float64(scale),
	}
	var z T
	if unsafe.Sizeof(z) == 8 {
		descBackwardF64AVX512(&args)
	} else {
		descBackwardF32AVX512(&args)
	}
	return true
}

//go:noescape
func descForwardF64AVX512(args *descArgs)

//go:noescape
func descForwardF32AVX512(args *descArgs)

//go:noescape
func descBackwardF64AVX512(args *descArgs)

//go:noescape
func descBackwardF32AVX512(args *descArgs)
