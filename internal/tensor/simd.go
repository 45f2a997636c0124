package tensor

import (
	"sync"
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// This file is the portable half of the SIMD microkernel engine: shape
// eligibility, the K-panel / tail-strip driver, the staged transpose of
// the TN variant, the staged column tails of the AVX2 strips, the
// column-panel driver of the NT dot tile and the pooled staging slabs.
// The amd64 half (simd_amd64.go + simd_*_amd64.s) provides the
// register-tiled kernels; simd_off.go turns the whole path off under
// `purego` or on any other architecture, which is the mandatory fallback
// contract: with no kernels available every GEMM routes to the naive loops
// of gemm.go.
//
// One rule. On an active family every call with k >= 1 and n >= 1 runs on
// that family's kernels, whatever its width, depth or row count: a short
// or ragged row range is the tail strip's or the odd pair's business, a
// narrow one the masked chunk's or the staged column tail's, so an output
// row's bits do not depend on how many rows share its call. The naive loops
// of gemm.go run only where they are named — Kernel = Naive, no active
// family — and for the degenerate calls (alpha = 0, k = 0, an empty C).
//
// Kernel shape. The paper's embedding GEMMs are tall and skinny
// (M = atoms*neighbors rows, K in {1, 25, 50}, N in {25, 50, 100}). The
// SIMD kernels need no packing: an R-row strip of A is held as
// broadcast scalars while B streams row by row through vector registers,
// every (row, column-chunk) accumulator living in its own register chain.
// How many chunks a kernel holds per row is its own business (the
// AVX-512 strips take three zmm at a time while that many columns remain,
// one after that; see simd_amd64.go): an element's chain — its bias or
// zero, one FMA per k in ascending k, its epilogue — is the same either
// way, so the driver below never sees the difference.
// Up to simdMaxK the reduction stays resident in one loop, so each strip
// makes exactly one pass over C: the epilogue — alpha/beta, bias add,
// tanh, tanh gradient — is applied in the store loop, and
// GemmBias/GemmBiasTanhGrad stop making a second pass over the output.
// That covers the embedding layers and the 240-wide hidden layers. Deeper
// reductions — the fitting net's first layer at paper geometry, depth
// M·M_axis = 1600, 38 % of that net's FLOPs — run the same kernels over
// simdMaxK-deep K panels (see simdRowRange): bias seeded on the first
// panel, the rest accumulated through the beta = 1 store. Only the fused
// tanh epilogues stay single-panel; GemmBiasTanhGradOpt beyond simdMaxK is
// the panelled GemmBias plus the same epilogue as a lane pass over the
// finished sums (laneTanh), so every tanh layer runs one tanh. The backward passes'
// GemmNT (dX = dY·Wᵀ) runs on an R x 4 dot-product tile with the lanes over
// K (R = 2 on AVX2, 4 on AVX-512), column panels of B outside the row tiles
// so that a panel is read from L1 (ntRowRange). The TN variant (training's
// dW = XᵀdY) stages Aᵀ into a pooled slab and runs the strips
// (gemmTNSIMD), and a depth-1 GemmNT with beta = 0 (the fitting net's head
// backward) is an outer product on the strips (GemmNTOpt), which beat the
// dot tile at that depth.
//
// Bit-exactness contract. A call runs on the calling goroutine; the
// parallelism is the caller's (core's force-call team, the trainer's
// frames), never a split of one GEMM. Every row's K panels are visited in
// the same order and a lane's result does not depend on the other rows of
// its strip. Every element of a SIMD call is computed by the lanes, each
// edge on zero-padded staging: remainder rows (m mod R) as a tail strip,
// the AVX2 strips' n mod cover tail columns as a sub-problem of cover
// columns (simdColumnTail), so in both precisions an edge element is
// bit-identical to an interior one holding the same data. The NT dot tile
// computes its columns in panels of ntPanelCols B rows (a tile dot product
// does not depend on where its panel starts), its n mod 4 tail columns on a
// zero-padded mini-panel of their B rows and the last m mod R rows as a tile
// with zero rows (ntRowRange) — so an NT row's bits do not depend on the
// call's row count.

// Epilogue modes of the tall-skinny kernels (tileArgs.mode).
const (
	epiNone     = 0 // C = alpha*acc + beta*C
	epiBias     = 1 // C = acc + bias   (acc seeded with bias, stored raw)
	epiTanh     = 2 // C = tanh(acc + bias)
	epiTanhGrad = 3 // epiTanh plus grad = 1 - C*C
)

const (
	// simdMaxK is the K-panel depth: the deepest reduction one kernel call
	// keeps in its loop. Deeper reductions accumulate over panels of this
	// depth (simdRowRange).
	simdMaxK = 256
	// simdNC is the column-chunk width: a B panel of simdMaxK x simdNC stays
	// hot across row strips (<= 1 MB f64).
	simdNC = 512
	// ntPanelBytes is the byte budget of one column panel of the NT dot
	// driver (ntRowRange): the B rows every row tile of a range re-reads
	// before the next panel is touched, sized to stay in L1 beside the
	// tile's A rows (four 240-deep f64 rows are 7.5 KB, inside a 48 KB
	// L1d with the panel). 240-deep f64 gives 16 columns, f32 32. Swept
	// 8..256 columns in DESIGN.md ("SIMD microkernels").
	ntPanelBytes = 32 << 10
	// colTailRows is the row block of a staged column tail
	// (simdColumnTail): a multiple of every strip height, its C and grad
	// blocks 32 KB at the f64 cover.
	colTailRows = 256
)

// tileArgs is the argument block passed to every tall-skinny kernel. The
// field offsets are hard-coded in the .s files (TA_* defines) and asserted
// by TestTileArgsLayout. Strides are in elements; alpha/beta are always
// float64 (the f32 kernels narrow them once per call).
type tileArgs struct {
	a     unsafe.Pointer // strip's first A row (k elements, stride lda)
	b     unsafe.Pointer // B[0, j0] (k rows, stride ldb)
	c     unsafe.Pointer // C[i0, j0]
	bias  unsafe.Pointer // bias[j0] (modes >= epiBias)
	grad  unsafe.Pointer // grad[i0, j0] (mode epiTanhGrad)
	lda   uintptr
	ldb   uintptr
	ldc   uintptr
	ldg   uintptr
	k     uintptr
	n     uintptr // columns to produce (AVX2 strips: a multiple of cover)
	alpha float64
	beta  float64
	mode  uintptr
}

// simdKernelCaps describes the tile geometry of one family/element-size
// pair, reported by the per-arch simdCaps.
type simdKernelCaps struct {
	rows   int // asm strip height (rows per kernel call)
	cover  int // column chunk width (AVX2 stages a narrower tail to it)
	ntRows int // A rows per NT dot tile call
}

// packSlab is a pooled staging buffer: the tail strip, the column tail, the
// NT edges and the TN transpose.
type packSlab[T Float] struct{ buf []T }

var (
	packPool32 = sync.Pool{New: func() any { return new(packSlab[float32]) }}
	packPool64 = sync.Pool{New: func() any { return new(packSlab[float64]) }}
)

func packPoolFor[T Float]() *sync.Pool {
	var z T
	if sizeofT(z) == 4 {
		return &packPool32
	}
	return &packPool64
}

// getSlab fetches a pooled slab of at least n elements. Differently-shaped
// calls share the pool, so an exact-size slab handed to a larger request
// would reallocate on the same calls every MD step; capacity grows in
// powers of two instead, the pooled population converges to the largest
// request classes and the steady-state loop stops allocating. Callers
// release with an explicit putSlab, not defer: deferring a generic call
// captures the type dictionary into a heap-allocated closure.
//
//dp:warmup
func getSlab[T Float](n int) *packSlab[T] {
	p, _ := packPoolFor[T]().Get().(*packSlab[T])
	if p == nil {
		p = new(packSlab[T])
	}
	if cap(p.buf) < n {
		c := 1
		for c < n {
			c <<= 1
		}
		p.buf = make([]T, c)
	}
	p.buf = p.buf[:n]
	return p
}

func putSlab[T Float](p *packSlab[T]) {
	packPoolFor[T]().Put(p)
}

// simdActive returns the family to dispatch on and its caps for element
// size es, or ok = false when the naive loops must be used.
func simdActive(es int) (cpufeat.Family, simdKernelCaps, bool) {
	fam := cpufeat.Active()
	if fam == cpufeat.Generic {
		return fam, simdKernelCaps{}, false
	}
	caps, ok := simdCaps(fam, es)
	return fam, caps, ok
}

// simdStrips returns the family and caps the strip kernels run a depth-k,
// n-column product with epilogue mode on, or ok = false for no active
// family, a degenerate call, or a fused tanh deeper than one K panel. It
// reads the layer, never the row count.
func simdStrips[T Float](k, n int, alpha T, mode int) (cpufeat.Family, simdKernelCaps, bool) {
	var z T
	fam, caps, ok := simdActive(sizeofT(z))
	if !ok || k < 1 || n < 1 || alpha == 0 {
		return fam, caps, false
	}
	if mode >= epiTanh && k > simdMaxK {
		return fam, caps, false
	}
	return fam, caps, true
}

// gemmSIMD attempts C = alpha*A*B + beta*C (epiNone) or one of the fused
// epilogues on the active SIMD family, returning false when no kernel
// applies so the caller can fall back to the naive loops.
func gemmSIMD[T Float](m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) bool {
	fam, caps, ok := simdStrips(k, n, alpha, mode)
	if !ok {
		return false
	}
	simdRowRange(fam, caps, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
	return true
}

// gemmTNSIMD attempts C = alpha*Aᵀ*B + beta*C, A: m x k, B: m x n, C: k x n
// — a depth-m product with k output rows — on the strips: Aᵀ is staged into
// a pooled slab and gemmSIMD runs on it, so the TN variant needs no kernel
// of its own. It declines before staging anything.
func gemmTNSIMD[T Float](m, k, n int, alpha T, a, b []T, beta T, c []T) bool {
	if _, _, ok := simdStrips(m, n, alpha, epiNone); !ok {
		return false
	}
	slab := getSlab[T](k * m)
	at := slab.buf
	// Eight source rows at a time, so every destination run is contiguous
	// and the eight source rows stream in step.
	for i0 := 0; i0 < m; i0 += 8 {
		i1 := min(m, i0+8)
		for p := 0; p < k; p++ {
			dst := at[p*m+i0 : p*m+i1]
			for i := range dst {
				dst[i] = a[(i0+i)*k+p]
			}
		}
	}
	gemmSIMD(k, m, n, alpha, at, m, b, n, beta, c, n, nil, epiNone, nil, 0)
	putSlab(slab)
	return true
}

// simdRowRange processes the m rows of C in three nested loops: column
// chunks of simdNC, K panels of simdMaxK, row strips. With the panel loop
// outside the strip loop one simdMaxK x simdNC slice of B stays cache-hot
// across every strip and an R-row A panel stays in L1; a strip accumulates
// into C across panels — the caller's epilogue (bias seed, alpha/beta) on
// the first panel, C += alpha*acc through the beta = 1 store on the rest —
// so k <= simdMaxK is the one-panel case of the same loop. The fused tanh
// epilogues need the finished sum and are single-panel only (gemmSIMD
// declines them beyond simdMaxK).
//
// The m mod R remainder rows run through the same kernel as one more
// strip: their A rows are staged zero-padded to R rows in a pooled
// slab, with an R-row staging block for C and one for grad behind them.
// The AVX-512 strips mask their last column chunk in-lane; the AVX2 strips
// compute n &^ (cover-1) columns, and the n mod cover tail runs on staging
// (simdColumnTail). Every element is computed by the lanes.
func simdRowRange[T Float](fam cpufeat.Family, caps simdKernelCaps, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) {
	if fam != cpufeat.AVX512 && n%caps.cover != 0 {
		simdColumnTail(fam, caps, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
		n &^= caps.cover - 1
	}
	R := caps.rows
	full := m / R * R
	rem := m - full
	var tail *packSlab[T]
	var ta, tc, tg []T
	if rem > 0 {
		tail = getSlab[T](R * (k + 2*n))
		ta, tc, tg = tail.buf[:R*k], tail.buf[R*k:R*(k+n)], tail.buf[R*(k+n):]
		for r := 0; r < rem; r++ {
			copy(ta[r*k:(r+1)*k], a[(full+r)*lda:])
			if beta != 0 {
				copy(tc[r*n:(r+1)*n], c[(full+r)*ldc:])
			}
		}
		clear(ta[rem*k:])
	}
	var args tileArgs
	args.ldb = uintptr(ldb)
	args.alpha = float64(alpha)
	for j0 := 0; j0 < n; j0 += simdNC {
		args.n = uintptr(min(simdNC, n-j0))
		for p0 := 0; p0 < k; p0 += simdMaxK {
			pMode, pBeta := mode, beta
			if p0 > 0 {
				pMode, pBeta = epiNone, 1
			}
			args.b = unsafe.Pointer(&b[p0*ldb+j0])
			if pMode != epiNone {
				args.bias = unsafe.Pointer(&bias[j0])
			}
			args.k = uintptr(min(simdMaxK, k-p0))
			args.beta = float64(pBeta)
			args.mode = uintptr(pMode)
			args.lda, args.ldc, args.ldg = uintptr(lda), uintptr(ldc), uintptr(ldg)
			for i := 0; i < full; i += R {
				args.a = unsafe.Pointer(&a[i*lda+p0])
				args.c = unsafe.Pointer(&c[i*ldc+j0])
				if pMode == epiTanhGrad {
					args.grad = unsafe.Pointer(&grad[i*ldg+j0])
				}
				tsTile[T](fam, &args)
			}
			if rem > 0 {
				args.a = unsafe.Pointer(&ta[p0])
				args.c = unsafe.Pointer(&tc[j0])
				args.grad = unsafe.Pointer(&tg[j0])
				args.lda, args.ldc, args.ldg = uintptr(k), uintptr(n), uintptr(n)
				tsTile[T](fam, &args)
			}
		}
	}
	if rem > 0 {
		for r := 0; r < rem; r++ {
			copy(c[(full+r)*ldc:(full+r)*ldc+n], tc[r*n:])
			if mode == epiTanhGrad {
				copy(grad[(full+r)*ldg:(full+r)*ldg+n], tg[r*n:])
			}
		}
		putSlab(tail)
	}
}

// simdColumnTail computes the last n mod cover columns of the m rows as
// a sub-problem of exactly cover columns on zero-padded staging in one
// pooled slab: B's tail columns and the bias, staged once, and a block each
// for C (seeded from C when beta != 0) and grad, reused over blocks of
// colTailRows rows. simdRowRange runs each block like any other range — the
// K panels, the tail strip — and the real columns are copied back. A lane's
// result depends only on its own column of B and bias, and the blocks start
// at multiples of every strip height, so a staged column has the bits an
// in-place one would.
func simdColumnTail[T Float](fam cpufeat.Family, caps simdKernelCaps, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) {
	w := caps.cover
	j0 := n &^ (w - 1)
	jt := n - j0
	blk := min(colTailRows, m)
	slab := getSlab[T](w * (k + 1 + 2*blk))
	clear(slab.buf)
	buf := slab.buf
	tb, buf := buf[:k*w], buf[k*w:]
	tbias, buf := buf[:w], buf[w:]
	tc, tg := buf[:blk*w], buf[blk*w:]
	for p := 0; p < k; p++ {
		copy(tb[p*w:p*w+jt], b[p*ldb+j0:])
	}
	if mode != epiNone {
		copy(tbias[:jt], bias[j0:])
	}
	for r0 := 0; r0 < m; r0 += blk {
		rows := min(blk, m-r0)
		if beta != 0 {
			for i := 0; i < rows; i++ {
				copy(tc[i*w:i*w+jt], c[(r0+i)*ldc+j0:])
			}
		}
		simdRowRange(fam, caps, rows, k, w, alpha, a[r0*lda:], lda, tb, w, beta, tc, w, tbias, mode, tg, w)
		for i := 0; i < rows; i++ {
			copy(c[(r0+i)*ldc+j0:(r0+i)*ldc+n], tc[i*w:])
			if mode == epiTanhGrad {
				copy(grad[(r0+i)*ldg+j0:(r0+i)*ldg+n], tg[i*w:])
			}
		}
	}
	putSlab(slab)
}

// gemmNTSIMD attempts C = alpha*A*B^T + beta*C on the family's NT dot
// tile (caps.ntRows A rows x 4 B rows, lanes vectorized over K, a k mod
// lane-width tail in scalar lanes) at any depth and width. Returns false
// for no active family or a degenerate call.
func gemmNTSIMD[T Float](m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) bool {
	var z T
	fam, caps, ok := simdActive(sizeofT(z))
	if !ok || k < 1 || m < 1 || n < 1 || alpha == 0 {
		return false
	}
	ntRowRange(fam, caps.ntRows, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc)
	return true
}

// ntPanelCols is the NT driver's panel width at reduction depth k: as many
// B rows (output columns) as fit ntPanelBytes, a multiple of the tile's four
// and never fewer.
func ntPanelCols[T Float](k int) int {
	var z T
	return max(4, ntPanelBytes/(k*sizeofT(z))) &^ 3
}

// ntRowRange processes the m rows of C panel-outer and tile-inner: the
// columns are cut into panels of ntPanelCols B rows and every R-row tile
// visits one panel before any visits the next, so a panel comes from
// memory once and from L1 for every tile after the first — where a tile
// that walks all n
// columns re-streams the whole of B (3 MB for the backward of the
// 1600→240 fitting layer) once per R rows. A B that fits one panel is the
// one-panel case of the same loop. A panel is one call of the asm tile per
// R rows, and a tile dot product depends neither on the other dots of its
// step nor on where its panel starts, so the cut changes no bit.
//
// Both edges ride the same loop on zero-padded staging in one pooled slab —
// the NT twins of simdRowRange's tail strip. The n mod 4 tail columns are a
// last panel: their B rows staged to the tile's four, with a 4-column block
// of C for every row behind them. The backward passes of the embedding net
// live on those tails (dX = dpre·Wᵀ has n = 50, 25 and 1 columns at the
// paper's widths). The m mod R last rows are a last tile: the rows
// staged above zero rows, with an R-row block of C over all the columns.
// Every element is computed by the lanes, and an edge element has the bits
// a covered one would.
func ntRowRange[T Float](fam cpufeat.Family, R, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	jCov := n &^ 3
	jt := n - jCov
	n4 := (n + 3) &^ 3 // n padded to the tile's four
	full := m / R * R
	rem := m - full

	// tb, tc: the tail panel's B rows and its C block for rows [0, full).
	// ra, rc: the last rows' A tile and C block, n4 columns wide.
	var slab *packSlab[T]
	var tb, tc, ra, rc []T
	if jt > 0 || rem > 0 {
		nTB, nTC, nRA, nRC := 0, 0, 0, 0
		if jt > 0 {
			nTB, nTC = 4*k, 4*full
		}
		if rem > 0 {
			nRA, nRC = R*k, R*n4
		}
		slab = getSlab[T](nTB + nTC + nRA + nRC)
		buf := slab.buf
		tb, buf = buf[:nTB], buf[nTB:]
		tc, buf = buf[:nTC], buf[nTC:]
		ra, rc = buf[:nRA], buf[nRA:]
		if jt > 0 {
			for j := 0; j < jt; j++ {
				copy(tb[j*k:(j+1)*k], b[(jCov+j)*ldb:])
			}
			clear(tb[jt*k:])
			if beta != 0 {
				clear(tc)
				for i := 0; i < full; i++ {
					copy(tc[i*4:i*4+jt], c[i*ldc+jCov:])
				}
			}
		}
		if rem > 0 {
			for r := 0; r < rem; r++ {
				copy(ra[r*k:(r+1)*k], a[(full+r)*lda:])
			}
			clear(ra[rem*k:])
			if beta != 0 {
				clear(rc)
				for r := 0; r < rem; r++ {
					copy(rc[r*n4:r*n4+n], c[(full+r)*ldc:])
				}
			}
		}
	}

	var args tileArgs
	args.k = uintptr(k)
	args.alpha = float64(alpha)
	args.beta = float64(beta)
	nb := ntPanelCols[T](k)
	var jb int
	for j0 := 0; j0 < n; j0 += jb {
		// pc is the panel's C, pldc its row stride.
		var pc []T
		var pldc int
		if j0 < jCov {
			jb = min(nb, jCov-j0)
			args.b = unsafe.Pointer(&b[j0*ldb])
			args.ldb = uintptr(ldb)
			pc, pldc = c[j0:], ldc
		} else {
			jb = 4
			args.b = unsafe.Pointer(&tb[0])
			args.ldb = uintptr(k)
			pc, pldc = tc, 4
		}
		args.n = uintptr(jb)
		args.lda = uintptr(lda)
		args.ldc = uintptr(pldc)
		for i := 0; i < full; i += R {
			args.a = unsafe.Pointer(&a[i*lda])
			args.c = unsafe.Pointer(&pc[i*pldc])
			ntTile[T](fam, &args)
		}
		if rem > 0 {
			args.a = unsafe.Pointer(&ra[0])
			args.lda = uintptr(k)
			args.c = unsafe.Pointer(&rc[j0])
			args.ldc = uintptr(n4)
			ntTile[T](fam, &args)
		}
	}

	if jt > 0 {
		for i := 0; i < full; i++ {
			copy(c[i*ldc+jCov:i*ldc+n], tc[i*4:])
		}
	}
	for r := 0; r < rem; r++ {
		copy(c[(full+r)*ldc:(full+r)*ldc+n], rc[r*n4:])
	}
	if slab != nil {
		putSlab(slab)
	}
}
