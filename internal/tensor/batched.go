package tensor

import (
	"fmt"
	"sync"
	"time"

	"deepmd-go/internal/perf"
)

// This file holds the strided-batched GEMM family. The paper's single-GPU
// speedup hinges on merging the per-atom embedding and descriptor matrices
// of many atoms into a handful of large GEMM launches (Sec. 5.3.1, Fig. 3);
// the CPU analogue is one call that runs every item of a batch of
// identically-shaped small products through the blocked engine, instead of
// per-atom calls that each pay dispatch, timer and packing overhead and all
// fall below the single-GEMM size cutoff onto the naive reference path.
//
// Layout: item g of an operand lives at data[g*stride:], so a batch is any
// constant-stride walk over one backing slice — contiguous arena buffers
// (stride == item size), padded rows (stride > item size, e.g. the ax x 4
// sub-matrix at the head of every m x 4 item), or one shared operand
// (stride == 0).
//
// Execution: the batch is flattened into (item, C-row-block) work units and
// a contiguous range of units is handed to each worker. Every C element is
// produced by exactly one unit with the same panel tiling and accumulation
// order at every worker count, so results are bit-identical for any count
// (the same contract as the single-GEMM row-block pool, asserted by the
// differential tests). Each worker acquires one pair of pack slabs for its
// entire unit range — pack-buffer reuse across batch items is what makes
// packing affordable for items far below the single-GEMM cutoff.
//
// Per-item kernel choice: packing only amortizes with enough reduction
// depth, so items below batchItemWorthIt run the specialized naive loops
// instead of the packed microkernel — but still inside the batched call,
// parallelized over item ranges, with the per-call overheads amortized
// (measured: the k = 4 outer-product and dG shapes are 1.4-3x faster on
// the naive loops; the deep forward contractions 1.2-1.3x faster packed).
// The threshold sits below the single-GEMM cutoff because slab acquisition
// and dispatch are paid once per batch, not once per item. Kernel = Naive
// still selects the strictly serial per-item reference loops (the
// differential oracle).

// GemmBatchOpt computes C_g = alpha*A_g*B_g + beta*C_g for g in
// [0, batch), where A_g is the m x k row-major matrix at a[g*as:], B_g the
// k x n matrix at b[g*bs:] and C_g the m x n matrix at c[g*cs:].
func GemmBatchOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatch", batch, m*k, as, len(a), k*n, bs, len(b), m*n, cs, len(c))
	start := time.Now()
	tier := perf.TierNaive
	switch {
	case o.Kernel == Naive:
		runBatchNaive(1, batchVarN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	case !batchItemWorthIt(m, n, k):
		runBatchNaive(o.Workers, batchVarN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	default:
		tier = perf.TierPacked
		gemmBatchBlocked(o.Workers, batch, m, n, k, alpha, a, as, k, 1, b, bs, n, 1, beta, c, cs, n)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// GemmBatchNTOpt computes C_g = alpha*A_g*B_g^T + beta*C_g, A_g: m x k at
// a[g*as:], B_g: n x k at b[g*bs:], C_g: m x n at c[g*cs:]. Used by the
// batched descriptor outer product D = T (T[:ax])^T and the backward
// contraction dG = R~ dT^T.
func GemmBatchNTOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatchNT", batch, m*k, as, len(a), n*k, bs, len(b), m*n, cs, len(c))
	start := time.Now()
	tier := perf.TierNaive
	switch {
	case o.Kernel == Naive:
		runBatchNaive(1, batchVarNT, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	case !batchItemWorthIt(m, n, k):
		runBatchNaive(o.Workers, batchVarNT, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	default:
		tier = perf.TierPacked
		gemmBatchBlocked(o.Workers, batch, m, n, k, alpha, a, as, k, 1, b, bs, 1, k, beta, c, cs, n)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// GemmBatchTNOpt computes C_g = alpha*A_g^T*B_g + beta*C_g, A_g: m x k at
// a[g*as:], B_g: m x n at b[g*bs:], C_g: k x n at c[g*cs:]. Used by the
// batched forward descriptor contraction T = G^T R~ / N.
func GemmBatchTNOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatchTN", batch, m*k, as, len(a), m*n, bs, len(b), k*n, cs, len(c))
	start := time.Now()
	// Output is k x n with reduction over m.
	tier := perf.TierNaive
	switch {
	case o.Kernel == Naive:
		runBatchNaive(1, batchVarTN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	case !batchItemWorthIt(k, n, m):
		runBatchNaive(o.Workers, batchVarTN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	default:
		tier = perf.TierPacked
		gemmBatchBlocked(o.Workers, batch, k, n, m, alpha, a, as, 1, k, b, bs, n, 1, beta, c, cs, n)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// batchItem wraps item g's storage as a matrix view.
func batchItem[T Float](s []T, off, rows, cols int) Matrix[T] {
	return MatrixFrom(rows, cols, s[off:off+rows*cols])
}

// batchItemWorthIt reports whether the packed engine beats the specialized
// naive loops for one m x n output item with reduction depth k. The cutoff
// sits well below the single-GEMM blockedWorthIt because slab acquisition
// and call overhead are paid once per batch; what remains is the per-item
// packing cost, which only amortizes over enough reduction depth.
func batchItemWorthIt(m, n, k int) bool {
	return k >= 8 && m >= 2*mr && m*n*k >= 1<<13
}

// batchVariant tags the storage layout of a batched call for the naive
// item loops.
type batchVariant int

const (
	batchVarN  batchVariant = iota // A m x k, B k x n, C m x n
	batchVarNT                     // A m x k, B n x k, C m x n
	batchVarTN                     // A m x k, B m x n, C k x n
)

// runBatchNaive executes every item on the specialized naive kernels,
// partitioning contiguous item ranges over workers (<= 1 serial). The
// per-item kernel is identical at every worker count, so results are
// bit-identical regardless of partitioning.
func runBatchNaive[T Float](workers int, v batchVariant, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	if workers > batch {
		workers = batch
	}
	if 2*batch*m*n*k < 1<<21 {
		workers = 1
	}
	if workers <= 1 {
		batchNaiveRange(v, 0, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
		return
	}
	batchNaiveParallel(workers, v, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
}

// batchNaiveRange runs items [lo, hi) on the layout-specialized naive
// kernels.
func batchNaiveRange[T Float](v batchVariant, lo, hi, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	switch v {
	case batchVarN:
		for g := lo; g < hi; g++ {
			gemmNaive(alpha, batchItem(a, g*as, m, k), batchItem(b, g*bs, k, n), beta, batchItem(c, g*cs, m, n))
		}
	case batchVarNT:
		for g := lo; g < hi; g++ {
			gemmNTNaive(alpha, batchItem(a, g*as, m, k), batchItem(b, g*bs, n, k), beta, batchItem(c, g*cs, m, n))
		}
	default:
		for g := lo; g < hi; g++ {
			gemmTNNaive(alpha, batchItem(a, g*as, m, k), batchItem(b, g*bs, m, n), beta, batchItem(c, g*cs, k, n))
		}
	}
}

// batchNaiveParallel fans contiguous item ranges out over a goroutine
// pool. Separate from runBatchNaive so the goroutine closure captures
// copies of these parameters and the serial path stays allocation-free
// (same pattern as gemmRowBlocksParallel).
func batchNaiveParallel[T Float](workers int, v batchVariant, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	var wg sync.WaitGroup
	per := (batch + workers - 1) / workers
	for lo := 0; lo < batch; lo += per {
		hi := min(batch, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			batchNaiveRange(v, lo, hi, m, k, n, alpha, a, as, b, bs, beta, c, cs)
		}(lo, hi)
	}
	wg.Wait()
}

// checkBatch validates batch count, operand strides and backing lengths.
// Input strides may be zero (shared operand) or leave gaps; the output
// stride must be at least the item size so no C element belongs to two
// items.
func checkBatch(name string, batch, sizeA, as, lenA, sizeB, bs, lenB, sizeC, cs, lenC int) {
	if batch < 0 || as < 0 || bs < 0 || cs < 0 {
		panic(fmt.Sprintf("tensor: %s: negative batch or stride", name))
	}
	if batch > 1 && cs < sizeC {
		panic(fmt.Sprintf("tensor: %s: output stride %d smaller than item size %d", name, cs, sizeC))
	}
	if batch == 0 {
		return
	}
	if sizeA > 0 && (batch-1)*as+sizeA > lenA {
		panic(fmt.Sprintf("tensor: %s: A backing slice too short (%d for %d items of %d, stride %d)", name, lenA, batch, sizeA, as))
	}
	if sizeB > 0 && (batch-1)*bs+sizeB > lenB {
		panic(fmt.Sprintf("tensor: %s: B backing slice too short (%d for %d items of %d, stride %d)", name, lenB, batch, sizeB, bs))
	}
	if sizeC > 0 && (batch-1)*cs+sizeC > lenC {
		panic(fmt.Sprintf("tensor: %s: C backing slice too short (%d for %d items of %d, stride %d)", name, lenC, batch, sizeC, cs))
	}
}

// gemmBatchBlocked runs every batch item through the blocked engine:
// C'_g = alpha*A'_g*B'_g + beta*C'_g where A'_g is m x k with
// A'_g[i,p] = a[g*as + i*ari + p*arp], B'_g is k x n with
// B'_g[p,j] = b[g*bs + p*brp + j*brj], and C_g is row-major at c[g*cs:]
// with leading dimension ldc. Work units are (item, mcBlock row block)
// pairs; workers <= 1 runs them serially in order.
func gemmBatchBlocked[T Float](workers, batch, m, n, k int, alpha T, a []T, as, ari, arp int, b []T, bs, brp, brj int, beta T, c []T, cs, ldc int) {
	if batch == 0 || m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		for g := 0; g < batch; g++ {
			scaleC(beta, c[g*cs:], m, n, ldc)
		}
		return
	}
	nib := (m + mcBlock - 1) / mcBlock
	units := batch * nib
	if workers > units {
		workers = units
	}
	// The pool only pays off with enough total work across the batch.
	if 2*batch*m*n*k < 1<<21 {
		workers = 1
	}
	if workers <= 1 {
		bslab, aslab := batchSlabs[T](n, k)
		gemmBatchUnits(0, units, nib, m, n, k, alpha, a, as, ari, arp, b, bs, brp, brj, beta, c, cs, ldc, bslab.buf, aslab.buf)
		putSlab(aslab)
		putSlab(bslab)
		return
	}
	var wg sync.WaitGroup
	per := (units + workers - 1) / workers
	for lo := 0; lo < units; lo += per {
		hi := min(units, lo+per)
		wg.Add(1)
		//dp:allow noalloc the parallel path trades per-call goroutines for cores; the zero-alloc contract is the serial path
		go func(lo, hi int) {
			defer wg.Done()
			bslab, aslab := batchSlabs[T](n, k)
			gemmBatchUnits(lo, hi, nib, m, n, k, alpha, a, as, ari, arp, b, bs, brp, brj, beta, c, cs, ldc, bslab.buf, aslab.buf)
			putSlab(aslab)
			putSlab(bslab)
		}(lo, hi)
	}
	wg.Wait()
}

// batchSlabs acquires one pack-slab pair sized for the whole unit range of
// a worker: reused across every item the worker processes.
func batchSlabs[T Float](n, k int) (bslab, aslab *packSlab[T]) {
	bslab = getSlab[T](min(k, kcBlock) * ((min(n, ncBlock) + nr - 1) / nr * nr))
	aslab = getSlab[T](mcBlock * min(k, kcBlock))
	return bslab, aslab
}

// gemmBatchUnits processes work units [lo, hi). Unit u covers item
// u/nib and C row block (u%nib)*mcBlock; for that row block it runs the
// full N/K panel loops, packing into the caller's slabs. Per-unit
// computation is independent of the partitioning, which is what makes the
// batched engine bit-identical at every worker count.
func gemmBatchUnits[T Float](lo, hi, nib, m, n, k int, alpha T, a []T, as, ari, arp int, b []T, bs, brp, brj int, beta T, c []T, cs, ldc int, bbufAll, abuf []T) {
	for u := lo; u < hi; u++ {
		g := u / nib
		i0 := (u % nib) * mcBlock
		hiRow := min(m, i0+mcBlock)
		ag := a[g*as:]
		bg := b[g*bs:]
		cg := c[g*cs:]
		for j0 := 0; j0 < n; j0 += ncBlock {
			jb := min(ncBlock, n-j0)
			jTiles := (jb + nr - 1) / nr
			for p0 := 0; p0 < k; p0 += kcBlock {
				kb := min(kcBlock, k-p0)
				bbuf := bbufAll[:jTiles*kb*nr]
				packBPanel(bbuf, bg, j0, jb, p0, kb, brp, brj)
				betaEff := beta
				if p0 > 0 {
					betaEff = 1
				}
				gemmRowRangeSlab(i0, hiRow, m, jb, kb, j0, p0, alpha, ag, ari, arp, bbuf, jTiles, betaEff, cg, ldc, abuf)
			}
		}
	}
}
