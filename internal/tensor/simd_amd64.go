//go:build amd64 && !purego

package tensor

import (
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// Tile geometry of the amd64 kernel families (see simd_avx2_amd64.s and
// simd_avx512_amd64.s for the register assignments):
//
//   - AVX2 f64: 4-row strip x 8-column chunk (two ymm accumulators per
//     row, 8 FMA chains). f32: 8-row strip x 8-column chunk (one ymm per
//     row). The n mod 8 column tail runs on zero-padded staging
//     (simdColumnTail). NT dot tile: 2 A rows x 4 B rows, lanes over K.
//   - AVX-512: 8-row strip in groups of three zmm (24 f64 / 48 f32
//     columns, 24 accumulators, each A element broadcast once per k into
//     three FMAs) while a group's columns remain, then one-zmm chunks
//     (8 f64 / 16 f32 lanes) with embedded-broadcast FMA and a k-masked
//     final chunk, so every column is covered in-lane. Both loops give an
//     element the same FMA chain and epilogue, so its bits do not depend
//     on the loop (FuzzStripTileBits). The f64 tanh epilogue runs four
//     interleaved chains: a group's 24 sums reloaded from C in six blocks
//     of four, a chunk's eight accumulators in two. NT dot tile: 4 A rows
//     x 4 B rows, two of the AVX2 tile's dot products per zmm, so every
//     element keeps the AVX2 tile's bits.
//
// The nets' element-wise lane passes (below) are AVX2-encoded and serve
// both families.
func simdCaps(fam cpufeat.Family, es int) (simdKernelCaps, bool) {
	switch fam {
	case cpufeat.AVX2:
		if es == 8 {
			return simdKernelCaps{rows: 4, cover: 8, ntRows: 2}, true
		}
		return simdKernelCaps{rows: 8, cover: 8, ntRows: 2}, true
	case cpufeat.AVX512:
		if es == 8 {
			return simdKernelCaps{rows: 8, cover: 8, ntRows: 4}, true
		}
		return simdKernelCaps{rows: 8, cover: 16, ntRows: 4}, true
	default:
		// Generic takes the portable path: no SIMD caps.
		return simdKernelCaps{}, false
	}
}

// tsTile dispatches one tall-skinny strip call to the family kernel.
func tsTile[T Float](fam cpufeat.Family, p *tileArgs) {
	var z T
	if sizeofT(z) == 8 {
		if fam == cpufeat.AVX512 {
			tsTileF64AVX512(p)
		} else {
			tsTileF64AVX2(p)
		}
		return
	}
	if fam == cpufeat.AVX512 {
		tsTileF32AVX512(p)
	} else {
		tsTileF32AVX2(p)
	}
}

// ntTile dispatches one NT tile call: caps.ntRows A rows against args.n
// B rows.
func ntTile[T Float](fam cpufeat.Family, p *tileArgs) {
	var z T
	if sizeofT(z) == 8 {
		if fam == cpufeat.AVX512 {
			ntTileF64AVX512(p)
		} else {
			ntTileF64AVX2(p)
		}
		return
	}
	if fam == cpufeat.AVX512 {
		ntTileF32AVX512(p)
	} else {
		ntTileF32AVX2(p)
	}
}

//go:noescape
func tsTileF64AVX2(args *tileArgs)

//go:noescape
func tsTileF32AVX2(args *tileArgs)

//go:noescape
func ntTileF64AVX2(args *tileArgs)

//go:noescape
func ntTileF32AVX2(args *tileArgs)

//go:noescape
func tsTileF64AVX512(args *tileArgs)

//go:noescape
func tsTileF32AVX512(args *tileArgs)

//go:noescape
func ntTileF64AVX512(args *tileArgs)

//go:noescape
func ntTileF32AVX512(args *tileArgs)

// The element-wise lane passes of the nets (fused.go): one VEX-encoded
// kernel per pass and precision, which both families run. Each reports
// false when no family is active, and the caller runs its Go loop. A call
// covers every row of its matrices.

// laneMul computes dst = a .* b, all of len(dst).
func laneMul[T Float](dst, a, b []T) bool {
	if cpufeat.Active() == cpufeat.Generic {
		return false
	}
	n := len(dst)
	if len(a) < n || len(b) < n {
		panic("tensor: lane pass out of range")
	}
	if n > 0 {
		pd, pa, pb := unsafe.Pointer(&dst[0]), unsafe.Pointer(&a[0]), unsafe.Pointer(&b[0])
		if isF64[T]() {
			mulF64AVX2(pd, pa, pb, uintptr(n))
		} else {
			mulF32AVX2(pd, pa, pb, uintptr(n))
		}
	}
	return true
}

// laneAdd computes y += x, all of len(y).
func laneAdd[T Float](y, x []T) bool {
	if cpufeat.Active() == cpufeat.Generic {
		return false
	}
	n := len(y)
	if len(x) < n {
		panic("tensor: lane pass out of range")
	}
	if n > 0 {
		if isF64[T]() {
			addF64AVX2(unsafe.Pointer(&y[0]), unsafe.Pointer(&x[0]), uintptr(n))
		} else {
			addF32AVX2(unsafe.Pointer(&y[0]), unsafe.Pointer(&x[0]), uintptr(n))
		}
	}
	return true
}

// laneSkipDouble computes y[r, :] += (x[r, :], x[r, :]) over rows rows of
// n-wide x and 2n-wide y.
func laneSkipDouble[T Float](y, x []T, rows, n int) bool {
	if cpufeat.Active() == cpufeat.Generic {
		return false
	}
	if len(x) < rows*n || len(y) < 2*rows*n {
		panic("tensor: lane pass out of range")
	}
	if rows > 0 && n > 0 {
		if isF64[T]() {
			skipDoubleF64AVX2(unsafe.Pointer(&y[0]), unsafe.Pointer(&x[0]), uintptr(rows), uintptr(n))
		} else {
			skipDoubleF32AVX2(unsafe.Pointer(&y[0]), unsafe.Pointer(&x[0]), uintptr(rows), uintptr(n))
		}
	}
	return true
}

// laneSkipFold computes dx[r, :] += dy[r, :n] + dy[r, n:] over rows rows of
// n-wide dx and 2n-wide dy.
func laneSkipFold[T Float](dx, dy []T, rows, n int) bool {
	if cpufeat.Active() == cpufeat.Generic {
		return false
	}
	if len(dx) < rows*n || len(dy) < 2*rows*n {
		panic("tensor: lane pass out of range")
	}
	if rows > 0 && n > 0 {
		if isF64[T]() {
			skipFoldF64AVX2(unsafe.Pointer(&dx[0]), unsafe.Pointer(&dy[0]), uintptr(rows), uintptr(n))
		} else {
			skipFoldF32AVX2(unsafe.Pointer(&dx[0]), unsafe.Pointer(&dy[0]), uintptr(rows), uintptr(n))
		}
	}
	return true
}

// laneTanh computes y = tanh(y) in place and, when grad is not nil,
// grad = 1 - y*y, all of len(y), with the strip epilogue's operations: the
// tanh of a product the strips accumulated over several K panels.
func laneTanh[T Float](y, grad []T) bool {
	if cpufeat.Active() == cpufeat.Generic {
		return false
	}
	n := len(y)
	if grad != nil && len(grad) < n {
		panic("tensor: lane pass out of range")
	}
	if n > 0 {
		var pg unsafe.Pointer
		if grad != nil {
			pg = unsafe.Pointer(&grad[0])
		}
		if isF64[T]() {
			tanhF64AVX2(unsafe.Pointer(&y[0]), pg, uintptr(n))
		} else {
			tanhF32AVX2(unsafe.Pointer(&y[0]), pg, uintptr(n))
		}
	}
	return true
}

func isF64[T Float]() bool {
	var z T
	return sizeofT(z) == 8
}

//go:noescape
func mulF64AVX2(dst, a, b unsafe.Pointer, n uintptr)

//go:noescape
func mulF32AVX2(dst, a, b unsafe.Pointer, n uintptr)

//go:noescape
func addF64AVX2(y, x unsafe.Pointer, n uintptr)

//go:noescape
func addF32AVX2(y, x unsafe.Pointer, n uintptr)

//go:noescape
func skipDoubleF64AVX2(y, x unsafe.Pointer, rows, n uintptr)

//go:noescape
func skipDoubleF32AVX2(y, x unsafe.Pointer, rows, n uintptr)

//go:noescape
func skipFoldF64AVX2(dx, dy unsafe.Pointer, rows, n uintptr)

//go:noescape
func skipFoldF32AVX2(dx, dy unsafe.Pointer, rows, n uintptr)

//go:noescape
func tanhF64AVX2(y, grad unsafe.Pointer, n uintptr)

//go:noescape
func tanhF32AVX2(y, grad unsafe.Pointer, n uintptr)
