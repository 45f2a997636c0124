//go:build amd64 && !purego

package compress

import (
	"unsafe"

	"deepmd-go/internal/descriptor"
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
	cover := m
	if fam == cpufeat.AVX2 {
		cover = descriptor.LaneCover[T](m)
	}
	if cover == 0 {
		return 0
	}
	var z T
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

// tileArgs is the argument block of the tile kernels (fused_amd64.s). The
// field offsets are hard-coded there (TA_* defines) and asserted by
// TestTileArgsLayout. One block serves every tile of a ContractForward or
// ContractBackward call: tileStart sets the per-call fields, locateTile
// the per-tile ones.
type tileArgs struct {
	coef  unsafe.Pointer     // the table's coefficients
	rows  unsafe.Pointer     // the tile's environment rows: nk x 4
	t     unsafe.Pointer     // forward: the 4 x m accumulator; backward: 4 x m dT
	nd    unsafe.Pointer     // backward: the tile's nk x 4 output rows
	u     unsafe.Pointer     // the rows' in-segment coordinates, nk T (scratch)
	dtail unsafe.Pointer     // backward: per channel c past cover, dT[0..3][c] twice (scratch)
	nk    uintptr            // rows in the tile, 1..FusedTile
	m     uintptr            // channels
	cover uintptr            // descriptor.LaneCover(m)
	invH  float64            // backward; the kernels narrow it to float32
	off   [FusedTile]uintptr // byte offset of each row's segment in coef
}

// tileStart reports whether the tile kernels run for this call — float32
// tables under AVX-512 only; float64 tables, AVX2 and generic keep the row
// route — and if so sets
// the per-call fields of a. t is the forward's accumulator or the
// backward's dT, both 4 x m; ts is the tileScratch part of the operator's
// scratch. The backward also fills dtail there from dT.
func tileStart[T tensor.Float](tb *Table[T], a *tileArgs, t, ts []T, backward bool) bool {
	var z T
	if cpufeat.Active() != cpufeat.AVX512 || unsafe.Sizeof(z) == 8 {
		return false
	}
	m := tb.M
	cover := descriptor.LaneCover[T](m)
	a.coef, a.t = unsafe.Pointer(&tb.Coef[0]), unsafe.Pointer(&t[0])
	a.u, a.dtail = unsafe.Pointer(&ts[0]), unsafe.Pointer(&ts[FusedTile])
	a.m, a.cover, a.invH = uintptr(m), uintptr(cover), float64(tb.invH)
	if !backward {
		return true
	}
	dtail := ts[FusedTile : FusedTile+8*(m-cover)]
	for c := cover; c < m; c++ {
		d := dtail[8*(c-cover) : 8*(c-cover+1)]
		for j := 0; j < 4; j++ {
			d[j], d[4+j] = t[j*m+c], t[j*m+c]
		}
	}
	return true
}

// locateTile fills a's per-tile fields for the rows of tile, the rows'
// u into ts, and reports whether every row is in domain; a row that
// extrapolates sends the tile down the row route.
func locateTile[T tensor.Float](tb *Table[T], a *tileArgs, tile, ts []T) bool {
	stride := uintptr(coefPerSeg*tb.M) * unsafe.Sizeof(tile[0])
	nk := len(tile) / 4
	u := ts[:nk]
	for i := range u {
		seg, ui, delta := tb.locate(tile[4*i])
		if delta != 0 {
			return false
		}
		a.off[i], u[i] = uintptr(seg)*stride, ui
	}
	a.rows, a.nk = unsafe.Pointer(&tile[0]), uintptr(nk)
	return true
}

// forwardTile runs ContractForward on one tile in one kernel call and
// reports whether it did.
func forwardTile[T tensor.Float](tb *Table[T], a *tileArgs, tile, ts []T) bool {
	if !locateTile(tb, a, tile, ts) {
		return false
	}
	fusedFwdF32AVX512(a)
	return true
}

// backwardTile runs ContractBackward on one tile in one kernel call,
// writing the tile's rows of nd into out, and reports whether it did.
func backwardTile[T tensor.Float](tb *Table[T], a *tileArgs, tile, out, ts []T) bool {
	if !locateTile(tb, a, tile, ts) {
		return false
	}
	_ = out[len(tile)-1]
	a.nd = unsafe.Pointer(&out[0])
	fusedBwdF32AVX512(a)
	return true
}

//go:noescape
func fusedFwdF32AVX512(a *tileArgs)

//go:noescape
func fusedBwdF32AVX512(a *tileArgs)
