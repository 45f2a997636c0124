//go:build amd64 && !purego

package descriptor

import (
	"unsafe"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// contractArgs is the argument block of the contraction kernels. The
// field offsets are hard-coded in fused_amd64.s (CA_* defines) and
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
