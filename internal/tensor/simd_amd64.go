//go:build amd64 && !purego

package tensor

import "deepmd-go/internal/tensor/cpufeat"

// Tile geometry of the amd64 kernel families (see simd_avx2_amd64.s and
// simd_avx512_amd64.s for the register assignments):
//
//   - AVX2 f64: 4-row strip x 8-column chunk (two ymm accumulators per
//     row, 8 FMA chains). f32: 8-row strip x 8-column chunk (one ymm per
//     row). The n mod 8 column tail runs on zero-padded staging
//     (simdColumnTail).
//   - AVX-512: 8-row strip x one zmm chunk (8 f64 / 16 f32 lanes),
//     embedded-broadcast FMA, and a k-masked final chunk so every column
//     is covered in-lane.
//
// The NT dot tile (2 rows x 4 B-rows, lanes over K) is AVX2-encoded and
// serves both families.
func simdCaps(fam cpufeat.Family, es int) (simdKernelCaps, bool) {
	switch fam {
	case cpufeat.AVX2:
		if es == 8 {
			return simdKernelCaps{rows: 4, cover: 8}, true
		}
		return simdKernelCaps{rows: 8, cover: 8}, true
	case cpufeat.AVX512:
		if es == 8 {
			return simdKernelCaps{rows: 8, cover: 8}, true
		}
		return simdKernelCaps{rows: 8, cover: 16}, true
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

// ntTile dispatches one NT row-pair call. The dot tile is AVX2-encoded;
// AVX-512 hosts run it too (cpufeat gates AVX512 on AVX2+FMA).
func ntTile[T Float](fam cpufeat.Family, p *tileArgs) {
	var z T
	if sizeofT(z) == 8 {
		ntTileF64AVX2(p)
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
