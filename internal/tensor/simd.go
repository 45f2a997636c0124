package tensor

import (
	"math"
	"sync"
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// This file is the portable half of the SIMD microkernel engine: shape
// eligibility, worker fan-out, the K-panel / tail-strip driver, the
// staged transpose of the TN variant, the column-panel driver of the NT
// dot tile, the pooled staging slabs, and the scalar Go model that
// finishes the column tails the unmasked family does not cover. The amd64
// half (simd_amd64.go + simd_*_amd64.s) provides the register-tiled
// kernels; simd_off.go turns the whole path off under `purego` or on any
// other architecture, which is the mandatory fallback contract: with no
// kernels available every GEMM routes to the naive loops of gemm.go.
//
// Two tiers, chosen by the layer. A call runs on a SIMD kernel when one
// covers its (k, n, epilogue) on the active family and on the naive loops
// otherwise; the row count never enters the choice (a short or ragged row
// range is the tail strip's or the odd pair's business), so an output
// row's bits do not depend on how many rows share its call.
//
// Kernel shape. The paper's embedding GEMMs are tall and skinny
// (M = atoms*neighbors rows, K in {1, 25, 50}, N in {25, 50, 100}). The
// SIMD kernels need no packing: an R-row strip of A is held as
// broadcast scalars while B streams row by row through vector registers,
// every (row, column-chunk) accumulator living in its own register chain.
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
// the panelled GemmBias plus the separate tanh pass. The backward passes'
// GemmNT (dX = dY·Wᵀ) runs on a 2x4 dot-product tile with the lanes over K,
// column panels of B outside the row pairs so that a panel is read from L1
// (ntRowRange). The TN variant (training's dW = XᵀdY) stages Aᵀ into a
// pooled slab and runs the strips (gemmTNSIMD). What runs naive is the
// shapes below the tiles' widths (the fitting net's one-column head) and
// everything when no family is active (purego, DEEPMD_KERNEL=generic, any
// GOARCH but amd64).
//
// Bit-exactness contract. Worker fan-out partitions rows in multiples of
// the strip height from row 0, every row's K panels are visited in the
// same order, and a lane's result does not depend on the other rows of
// its strip, so every element is computed by the same instruction sequence
// at any worker count. Remainder rows (m mod R) are computed by the lanes
// too, as a zero-padded tail strip, so in both precisions a remainder row
// is bit-identical to a strip row holding the same data. The NT dot tile
// computes every element in-lane: its columns in panels of ntPanelCols B
// rows (a tile dot product does not depend on where its panel starts), its
// n mod 4 tail columns on a zero-padded mini-panel of their B rows and an
// odd last row as a pair with a zero row (ntRowRange) — so an NT row's bits
// do not depend on whether the call's row count is odd. The scalar model
// is left with the column tails of the unmasked family (AVX2);
// there the float64 model reproduces the asm lanes operation for
// operation (math.FMA accumulation, the same epilogue arithmetic,
// tanhApprox64), and the float32 model agrees to within the documented
// differential tolerance (the f32 FMA double-rounding caveat in
// DESIGN.md) — a column is served by one or the other for all rows, so
// neither is ever compared against the other inside one result.

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
	// driver (ntRowRange): the B rows every row pair of a range re-reads
	// before the next panel is touched, sized to stay in L1 beside the
	// pair's two A rows. 240-deep f64 gives 16 columns, f32 32. Swept
	// 8..256 columns in DESIGN.md ("SIMD microkernels").
	ntPanelBytes = 32 << 10
	// simdParMin is the serial threshold: below this many FLOPs goroutine
	// fan-out costs more than it saves.
	simdParMin = 1 << 21
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
	n     uintptr // columns to produce (see simdKernelCaps.masked)
	alpha float64
	beta  float64
	mode  uintptr
}

// simdKernelCaps describes the tile geometry of one family/element-size
// pair, reported by the per-arch simdCaps.
type simdKernelCaps struct {
	rows      int  // asm strip height (rows per kernel call)
	cover     int  // column granularity: asm covers n &^ (cover-1)
	masked    bool // asm covers every column (AVX-512 k-masked tails)
	fusedTanh bool // epiTanh/epiTanhGrad implemented in the epilogue
	hasNT     bool // 2x4 dot-product tile for GemmNT (mode epiNone)
}

// packSlab is a pooled staging buffer: the tail strip, the NT edges and the
// TN transpose.
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
// n-column product with epilogue mode on, or ok = false where none covers
// it. It reads the layer, never the row count.
func simdStrips[T Float](k, n int, alpha T, mode int) (cpufeat.Family, simdKernelCaps, bool) {
	var z T
	fam, caps, ok := simdActive(sizeofT(z))
	if !ok || k < 1 || alpha == 0 || n < caps.cover {
		return fam, caps, false
	}
	if mode >= epiTanh && (!caps.fusedTanh || k > simdMaxK) {
		return fam, caps, false
	}
	return fam, caps, true
}

// gemmSIMD attempts C = alpha*A*B + beta*C (epiNone) or one of the fused
// epilogues on the active SIMD family, returning false when no kernel
// applies so the caller can fall back to the naive loops.
func gemmSIMD[T Float](workers, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) bool {
	fam, caps, ok := simdStrips(k, n, alpha, mode)
	if !ok {
		return false
	}
	nStrips := m / caps.rows
	if 2*m*n*k < simdParMin {
		workers = 1
	}
	if workers > nStrips {
		workers = nStrips
	}
	if workers <= 1 {
		simdRowRange(fam, caps, 0, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
		return true
	}
	simdRowsParallel(fam, caps, workers, nStrips, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
	return true
}

// gemmTNSIMD attempts C = alpha*Aᵀ*B + beta*C, A: m x k, B: m x n, C: k x n
// — a depth-m product with k output rows — on the strips: Aᵀ is staged into
// a pooled slab and gemmSIMD runs on it, so the TN variant needs no kernel
// of its own. It declines before staging anything.
func gemmTNSIMD[T Float](workers, m, k, n int, alpha T, a, b []T, beta T, c []T) bool {
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
	gemmSIMD(workers, k, m, n, alpha, at, m, b, n, beta, c, n, nil, epiNone, nil, 0)
	putSlab(slab)
	return true
}

// simdRowsParallel fans row ranges out over a goroutine per worker. Ranges
// are multiples of the strip height measured from row 0, so strip/tail
// classification of every row is identical to the serial path — the
// worker-count bit-identity contract. A separate function so the serial
// path never allocates the closure.
func simdRowsParallel[T Float](fam cpufeat.Family, caps simdKernelCaps, workers, nStrips, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) {
	per := (nStrips + workers - 1) / workers * caps.rows
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += per {
		hi := min(m, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			simdRowRange(fam, caps, lo, hi, k, n, alpha, a, lda, b, ldb, beta, c, ldc, bias, mode, grad, ldg)
		}(lo, hi)
	}
	wg.Wait()
}

// simdRowRange processes C rows [lo, hi), lo a multiple of caps.rows, in
// three nested loops: column chunks of simdNC, K panels of simdMaxK, row
// strips. With the panel loop outside the strip loop one
// simdMaxK x simdNC slice of B stays cache-hot across every strip of the
// range and an R-row A panel stays in L1; a strip accumulates into C
// across panels — the caller's epilogue (bias seed, alpha/beta) on the
// first panel, C += alpha*acc through the beta = 1 store on the rest — so
// k <= simdMaxK is the one-panel case of the same loop. The fused tanh
// epilogues need the finished sum and are single-panel only (gemmSIMD
// declines them beyond simdMaxK).
//
// The (hi-lo) mod R remainder rows run through the same kernel as one
// more strip: their A rows are staged zero-padded to R rows in a pooled
// slab, with an R-row staging block for C and one for grad behind them, so
// every row of every column the asm covers is computed by the lanes. Only
// the column tail of the unmasked family (AVX2) is left to the
// scalar model, panel by panel in the same order.
func simdRowRange[T Float](fam cpufeat.Family, caps simdKernelCaps, lo, hi, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bias []T, mode int, grad []T, ldg int) {
	R := caps.rows
	full := lo + (hi-lo)/R*R
	rem := hi - full
	// simdNC is a multiple of every family's cover, so the uncovered
	// columns are the last n-nCov of the matrix, not of each chunk.
	nCov := n
	if !caps.masked {
		nCov = n &^ (caps.cover - 1)
	}
	var tail *packSlab[T]
	var ta, tc, tg []T
	if rem > 0 {
		tail = getSlab[T](R * (k + 2*nCov))
		ta, tc, tg = tail.buf[:R*k], tail.buf[R*k:R*(k+nCov)], tail.buf[R*(k+nCov):]
		for r := 0; r < rem; r++ {
			copy(ta[r*k:(r+1)*k], a[(full+r)*lda:])
			if beta != 0 {
				copy(tc[r*nCov:(r+1)*nCov], c[(full+r)*ldc:])
			}
		}
		clear(ta[rem*k:])
	}
	var args tileArgs
	args.ldb = uintptr(ldb)
	args.alpha = float64(alpha)
	for j0 := 0; j0 < n; j0 += simdNC {
		jb := min(simdNC, n-j0)
		jCov := max(0, min(jb, nCov-j0))
		for p0 := 0; p0 < k; p0 += simdMaxK {
			kb := min(simdMaxK, k-p0)
			pMode, pBeta := mode, beta
			if p0 > 0 {
				pMode, pBeta = epiNone, 1
			}
			if jCov > 0 {
				args.b = unsafe.Pointer(&b[p0*ldb+j0])
				if pMode != epiNone {
					args.bias = unsafe.Pointer(&bias[j0])
				}
				args.k = uintptr(kb)
				args.n = uintptr(jCov)
				args.beta = float64(pBeta)
				args.mode = uintptr(pMode)
				args.lda, args.ldc, args.ldg = uintptr(lda), uintptr(ldc), uintptr(ldg)
				for i := lo; i < full; i += R {
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
					args.lda, args.ldc, args.ldg = uintptr(k), uintptr(nCov), uintptr(nCov)
					tsTile[T](fam, &args)
				}
			}
			if jCov < jb {
				for i := lo; i < hi; i++ {
					simdScalarRow(a[i*lda+p0:i*lda+p0+kb], kb, b[p0*ldb:], ldb, j0+jCov, j0+jb, c[i*ldc:], bias, pMode, alpha, pBeta, gradRow(grad, i, ldg, pMode))
				}
			}
		}
	}
	if rem > 0 {
		for r := 0; r < rem; r++ {
			copy(c[(full+r)*ldc:(full+r)*ldc+nCov], tc[r*nCov:])
			if mode == epiTanhGrad {
				copy(grad[(full+r)*ldg:(full+r)*ldg+nCov], tg[r*nCov:])
			}
		}
		putSlab(tail)
	}
}

func gradRow[T Float](grad []T, i, ldg, mode int) []T {
	if mode != epiTanhGrad {
		return nil
	}
	return grad[i*ldg:]
}

// simdScalarRow finishes one K panel of one output row over the column
// tail [jlo, jhi) with the scalar model of the kernel lanes.
func simdScalarRow[T Float](ai []T, k int, b []T, ldb, jlo, jhi int, ci []T, bias []T, mode int, alpha, beta T, gi []T) {
	if a64, ok := any(ai).([]float64); ok {
		simdScalarRow64(a64, k, any(b).([]float64), ldb, jlo, jhi, any(ci).([]float64), any(bias).([]float64), mode, float64(alpha), float64(beta), any(gi).([]float64))
		return
	}
	simdScalarRow32(any(ai).([]float32), k, any(b).([]float32), ldb, jlo, jhi, any(ci).([]float32), any(bias).([]float32), mode, float64(alpha), float64(beta), any(gi).([]float32))
}

// simdScalarRow64 is the float64 lane model: bit-identical to the asm,
// with one carve-out — a NaN flowing into the tanh gradient keeps its
// payload, but the payload's sign bit may differ between hardware FMA and
// math.FMA (NaN propagation picks a different operand slot).
func simdScalarRow64(ai []float64, k int, b []float64, ldb, jlo, jhi int, ci []float64, bias []float64, mode int, alpha, beta float64, gi []float64) {
	for j := jlo; j < jhi; j++ {
		var acc float64
		if mode != epiNone {
			acc = bias[j]
		}
		for p := 0; p < k; p++ {
			acc = math.FMA(ai[p], b[p*ldb+j], acc)
		}
		switch mode {
		case epiNone:
			t := alpha * acc
			if beta == 0 {
				ci[j] = t
			} else {
				ci[j] = math.FMA(beta, ci[j], t)
			}
		case epiBias:
			ci[j] = acc
		case epiTanh:
			ci[j] = tanhApprox64(acc)
		case epiTanhGrad:
			y := tanhApprox64(acc)
			ci[j] = y
			gi[j] = math.FMA(-y, y, 1)
		}
	}
}

// simdScalarRow32 is the float32 lane model. The asm lanes use true
// single-rounded f32 FMA; emulating that exactly in Go is not possible
// (float32(math.FMA(...)) double-rounds in rare cases), so float32
// column tails agree with lanes to <= 1 ulp per operation — covered by the
// differential tolerance, never compared bitwise.
func simdScalarRow32(ai []float32, k int, b []float32, ldb, jlo, jhi int, ci []float32, bias []float32, mode int, alpha, beta float64, gi []float32) {
	a32, b32 := float32(alpha), float32(beta)
	for j := jlo; j < jhi; j++ {
		var acc float32
		if mode != epiNone {
			acc = bias[j]
		}
		for p := 0; p < k; p++ {
			acc = float32(math.FMA(float64(ai[p]), float64(b[p*ldb+j]), float64(acc)))
		}
		switch mode {
		case epiNone:
			t := a32 * acc
			if b32 == 0 {
				ci[j] = t
			} else {
				ci[j] = float32(math.FMA(float64(b32), float64(ci[j]), float64(t)))
			}
		case epiBias:
			ci[j] = acc
		case epiTanh:
			ci[j] = tanhApprox32(acc)
		case epiTanhGrad:
			y := tanhApprox32(acc)
			ci[j] = y
			gi[j] = float32(math.FMA(float64(-y), float64(y), 1))
		}
	}
}

// gemmNTSIMD attempts C = alpha*A*B^T + beta*C on the 2x4 dot-product
// tile (lanes vectorized over K). Returns false to fall back.
func gemmNTSIMD[T Float](workers, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) bool {
	var z T
	fam, caps, ok := simdActive(sizeofT(z))
	if !ok || !caps.hasNT || alpha == 0 {
		return false
	}
	// The dot tile pays off only with enough reduction depth to vectorize and
	// enough of it per row: the old m·max(n,4)·k ≥ 2¹³ cutoff at a full
	// 128-row embedding tile, so no row count enters the choice.
	if k < 8 || max(n, 4)*k < 64 {
		return false
	}
	nPairs := m / 2
	if 2*m*n*k < simdParMin {
		workers = 1
	}
	if workers > nPairs {
		workers = nPairs
	}
	if workers <= 1 {
		ntRowRange(fam, 0, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc)
		return true
	}
	ntRowsParallel(fam, workers, nPairs, m, k, n, alpha, a, lda, b, ldb, beta, c, ldc)
	return true
}

func ntRowsParallel[T Float](fam cpufeat.Family, workers, nPairs, m, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	per := (nPairs + workers - 1) / workers * 2
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += per {
		hi := min(m, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			ntRowRange(fam, lo, hi, k, n, alpha, a, lda, b, ldb, beta, c, ldc)
		}(lo, hi)
	}
	wg.Wait()
}

// ntPanelCols is the NT driver's panel width at reduction depth k: as many
// B rows (output columns) as fit ntPanelBytes, a multiple of the tile's four
// and never fewer.
func ntPanelCols[T Float](k int) int {
	var z T
	return max(4, ntPanelBytes/(k*sizeofT(z))) &^ 3
}

// ntRowRange processes C rows [lo, hi), lo even, panel-outer and
// row-pair-inner: the columns are cut into panels of ntPanelCols B rows and
// every row pair of the range visits one panel before any visits the next,
// so a panel comes from memory once and from L1 for every pair after the
// first — where a pair that walks all n columns re-streams the whole of B
// (3 MB for the backward of the 1600→240 fitting layer) once per two rows.
// A B that fits one panel is the one-panel case of the same loop. A panel
// is one call of the asm tile per pair, and a tile dot product depends
// neither on the other three of its step nor on where its panel starts, so
// the cut changes no bit.
//
// Both edges ride the same loop on zero-padded staging in one pooled slab —
// the NT twins of simdRowRange's tail strip. The n mod 4 tail columns are a
// last panel: their B rows staged to the tile's four, with a 4-column block
// of C for every row behind them. The backward passes of the embedding net
// live on those tails (dX = dpre·Wᵀ has n = 50, 25 and 1 columns at the
// paper's widths). An odd last row is a last pair: the row staged above a
// zero row, with a two-row block of C over all the columns. Every element
// is computed by the lanes, and an edge element has the bits a covered one
// would.
func ntRowRange[T Float](fam cpufeat.Family, lo, hi, k, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	jCov := n &^ 3
	jt := n - jCov
	n4 := (n + 3) &^ 3 // n padded to the tile's four
	full := lo + (hi-lo)/2*2
	odd := hi > full

	// tb, tc: the tail panel's B rows and its C block for rows [lo, full).
	// oa, oc: the odd row's A pair and its C pair, n4 columns wide.
	var slab *packSlab[T]
	var tb, tc, oa, oc []T
	if jt > 0 || odd {
		nTB, nTC, nOA, nOC := 0, 0, 0, 0
		if jt > 0 {
			nTB, nTC = 4*k, 4*(full-lo)
		}
		if odd {
			nOA, nOC = 2*k, 2*n4
		}
		slab = getSlab[T](nTB + nTC + nOA + nOC)
		buf := slab.buf
		tb, buf = buf[:nTB], buf[nTB:]
		tc, buf = buf[:nTC], buf[nTC:]
		oa, oc = buf[:nOA], buf[nOA:]
		if jt > 0 {
			for j := 0; j < jt; j++ {
				copy(tb[j*k:(j+1)*k], b[(jCov+j)*ldb:])
			}
			clear(tb[jt*k:])
			if beta != 0 {
				clear(tc)
				for i := lo; i < full; i++ {
					copy(tc[(i-lo)*4:(i-lo)*4+jt], c[i*ldc+jCov:])
				}
			}
		}
		if odd {
			copy(oa[:k], a[full*lda:])
			clear(oa[k:])
			if beta != 0 {
				copy(oc[:n], c[full*ldc:])
				clear(oc[n:])
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
		// pc is the panel's C at row lo, pldc its row stride.
		var pc []T
		var pldc int
		if j0 < jCov {
			jb = min(nb, jCov-j0)
			args.b = unsafe.Pointer(&b[j0*ldb])
			args.ldb = uintptr(ldb)
			pc, pldc = c[lo*ldc+j0:], ldc
		} else {
			jb = 4
			args.b = unsafe.Pointer(&tb[0])
			args.ldb = uintptr(k)
			pc, pldc = tc, 4
		}
		args.n = uintptr(jb)
		args.lda = uintptr(lda)
		args.ldc = uintptr(pldc)
		for i := lo; i < full; i += 2 {
			args.a = unsafe.Pointer(&a[i*lda])
			args.c = unsafe.Pointer(&pc[(i-lo)*pldc])
			ntTile[T](fam, &args)
		}
		if odd {
			args.a = unsafe.Pointer(&oa[0])
			args.lda = uintptr(k)
			args.c = unsafe.Pointer(&oc[j0])
			args.ldc = uintptr(n4)
			ntTile[T](fam, &args)
		}
	}

	if jt > 0 {
		for i := lo; i < full; i++ {
			copy(c[i*ldc+jCov:i*ldc+n], tc[(i-lo)*4:])
		}
	}
	if odd {
		copy(c[full*ldc:full*ldc+n], oc)
	}
	if slab != nil {
		putSlab(slab)
	}
}
