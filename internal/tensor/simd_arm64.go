//go:build arm64 && !purego

package tensor

import "deepmd-go/internal/tensor/cpufeat"

// Tile geometry of the arm64 NEON kernels (see simd_arm64.s for the
// register assignments):
//
//   - f64: 4-row strip x 4-column chunk (two 128-bit accumulators per
//     row, FMLA chains).
//   - f32: 4-row strip x 8-column chunk (same register shape, 4 lanes
//     per vector).
//
// NEON has no 256-bit registers and the Go assembler exposes no vector
// tanh-friendly ops we rely on elsewhere, so the fused tanh epilogues
// and the NT dot tile are not implemented here: gemmSIMD declines
// epiTanh/epiTanhGrad (fusedTanh = false) and GemmNT runs the naive loops
// (hasNT = false). Column tails below the chunk width go to the scalar
// model, exactly like the unmasked AVX2 family.
func simdCaps(fam cpufeat.Family, es int) (simdKernelCaps, bool) {
	if fam != cpufeat.NEON {
		return simdKernelCaps{}, false
	}
	if es == 8 {
		return simdKernelCaps{rows: 4, cover: 4}, true
	}
	return simdKernelCaps{rows: 4, cover: 8}, true
}

// tsTile dispatches one tall-skinny strip call to the NEON kernel.
func tsTile[T Float](fam cpufeat.Family, p *tileArgs) {
	var z T
	if sizeofT(z) == 8 {
		tsTileF64NEON(p)
		return
	}
	tsTileF32NEON(p)
}

// ntTile is unreachable on arm64: simdCaps reports hasNT = false, so
// gemmNTSIMD always declines before dispatching.
func ntTile[T Float](fam cpufeat.Family, p *tileArgs) {
	panic("tensor: no NT dot tile on arm64")
}

//go:noescape
func tsTileF64NEON(args *tileArgs)

//go:noescape
func tsTileF32NEON(args *tileArgs)
