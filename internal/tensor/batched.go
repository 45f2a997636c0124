package tensor

import (
	"fmt"
	"sync"

	"deepmd-go/internal/perf"
)

// This file holds the strided-batched GEMM family. The paper's single-GPU
// speedup hinges on merging the per-atom embedding and descriptor matrices
// of many atoms into a handful of large GEMM launches (Sec. 5.3.1, Fig. 3);
// the CPU analogue is one call that runs every item of a batch of
// identically-shaped small products, instead of per-atom calls that each
// pay dispatch and timer overhead.
//
// Layout: item g of an operand lives at data[g*stride:], so a batch is any
// constant-stride walk over one backing slice — contiguous arena buffers
// (stride == item size), padded rows (stride > item size, e.g. the ax x 4
// sub-matrix at the head of every m x 4 item), or one shared operand
// (stride == 0).
//
// Execution: the items the evaluator batches (fitChunk's depth-4 and
// depth-16 descriptor products, 6 400 multiply-adds an item) are far below
// every SIMD tile, so every item runs the layout-specialized naive loops of
// gemm.go, contiguous item ranges fanned out over the workers. Each item is
// computed the same way at every worker count, so results are
// bit-identical for any count. Both kernel families are these loops.

// GemmBatchOpt computes C_g = alpha*A_g*B_g + beta*C_g for g in
// [0, batch), where A_g is the m x k row-major matrix at a[g*as:], B_g the
// k x n matrix at b[g*bs:] and C_g the m x n matrix at c[g*cs:].
func GemmBatchOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatch", batch, m*k, as, len(a), k*n, bs, len(b), m*n, cs, len(c))
	start := ctr.Now()
	runBatchNaive(o.Workers, batchVarN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	ctr.ObserveGEMM(perf.TierNaive, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// GemmBatchNTOpt computes C_g = alpha*A_g*B_g^T + beta*C_g, A_g: m x k at
// a[g*as:], B_g: n x k at b[g*bs:], C_g: m x n at c[g*cs:]. Used by the
// batched descriptor outer product D = T (T[:ax])^T.
func GemmBatchNTOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatchNT", batch, m*k, as, len(a), n*k, bs, len(b), m*n, cs, len(c))
	start := ctr.Now()
	runBatchNaive(o.Workers, batchVarNT, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	ctr.ObserveGEMM(perf.TierNaive, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// GemmBatchTNOpt computes C_g = alpha*A_g^T*B_g + beta*C_g, A_g: m x k at
// a[g*as:], B_g: m x n at b[g*bs:], C_g: k x n at c[g*cs:]. Used by the
// batched backward contraction dT_a[:ax] += dD_a^T T_a.
func GemmBatchTNOpt[T Float](o Opts, ctr *perf.Counter, batch, m, k, n int, alpha T, a []T, as int, b []T, bs int, beta T, c []T, cs int) {
	checkBatch("GemmBatchTN", batch, m*k, as, len(a), m*n, bs, len(b), k*n, cs, len(c))
	start := ctr.Now()
	runBatchNaive(o.Workers, batchVarTN, batch, m, k, n, alpha, a, as, b, bs, beta, c, cs)
	ctr.ObserveGEMM(perf.TierNaive, start, 2*int64(batch)*int64(m)*int64(n)*int64(k))
}

// batchItem wraps item g's storage as a matrix view.
func batchItem[T Float](s []T, off, rows, cols int) Matrix[T] {
	return MatrixFrom(rows, cols, s[off:off+rows*cols])
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
// (same pattern as simdRowsParallel).
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
