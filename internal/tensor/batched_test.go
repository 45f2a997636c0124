package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the strided-batched GEMM family, under the same
// tolerance policy as differential_test.go: both kernel families are
// checked per item against a float64 recomputation with the
// magnitude-proportional budget, and worker counts 1/2/7 must be
// bit-identical (each item is computed by exactly one worker, the same way
// at every count). Stride coverage includes contiguous items,
// padded items (stride > item size, the evaluator's ax x 4 head of an
// m x 4 item), and shared operands (stride 0).

const (
	bvBatch = iota
	bvBatchNT
	bvBatchTN
	numBatchVariants
)

var batchVariantNames = [numBatchVariants]string{"GemmBatch", "GemmBatchNT", "GemmBatchTN"}

// batchShapes is (batch, m, k, n) in the per-item dimension convention of
// the public functions. Covers empty/unit batches and dims, the
// evaluator's descriptor shapes (m x 4 contractions over sel, sel x m
// backward outputs, ax = 16 outer products), tall items (m > 128), and
// totals above the auto-serial threshold so the worker sweep genuinely
// spawns the item-range goroutines.
var batchShapes = [][4]int{
	{0, 4, 5, 6}, {3, 0, 4, 5}, {3, 4, 0, 5}, {3, 4, 5, 0},
	{1, 1, 1, 1}, {1, 100, 46, 4}, {2, 3, 5, 7}, {3, 16, 12, 4},
	{5, 100, 4, 16}, {7, 16, 4, 100}, {7, 46, 100, 4}, {8, 8, 8, 8},
	{9, 31, 7, 5}, {16, 100, 500, 4}, {17, 13, 9, 11}, {64, 25, 50, 10},
	// sel = 500 copper backward: tall items.
	{3, 500, 4, 100},
	// Above the auto-serial threshold (2*batch*m*n*k >= 1<<21).
	{32, 64, 64, 64},
}

var batchAlphaBeta = [][2]float64{
	{1, 0}, {1, 1}, {0, 0}, {0, 0.5}, {2.5, -0.5}, {-1, 1},
}

// batchStrideMode selects how operand strides relate to item sizes.
type batchStrideMode int

const (
	strideTight   batchStrideMode = iota // stride == item size
	stridePadded                         // stride == item size + padding
	strideSharedA                        // A stride 0 (one shared A)
	strideSharedB                        // B stride 0 (one shared B)
	numStrideModes
)

var batchStrideNames = [numStrideModes]string{"tight", "padded", "sharedA", "sharedB"}

// runGemmBatchCase exercises one (variant, shape, strides, alpha/beta,
// precision) cell.
func runGemmBatchCase[T Float](t *testing.T, variant int, batch, m, k, n int, mode batchStrideMode, alpha, beta float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	al, be := T(alpha), T(beta)
	label := fmt.Sprintf("%s[%T] b=%d %dx%dx%d %s alpha=%g beta=%g",
		batchVariantNames[variant], al, batch, m, k, n, batchStrideNames[mode], alpha, beta)

	var sizeA, sizeB, sizeC int
	switch variant {
	case bvBatchNT:
		sizeA, sizeB, sizeC = m*k, n*k, m*n
	case bvBatchTN:
		sizeA, sizeB, sizeC = m*k, m*n, k*n
	default:
		sizeA, sizeB, sizeC = m*k, k*n, m*n
	}
	as, bs, cs := sizeA, sizeB, sizeC
	switch mode {
	case stridePadded:
		as, bs, cs = sizeA+3, sizeB+5, sizeC+2
	case strideSharedA:
		as = 0
	case strideSharedB:
		bs = 0
	}

	alloc := func(size, stride int) []T {
		total := size
		if batch > 0 {
			total = (batch-1)*stride + size
		}
		s := make([]T, total)
		for i := range s {
			s[i] = T(rng.NormFloat64())
		}
		return s
	}
	a := alloc(sizeA, as)
	b := alloc(sizeB, bs)
	c0 := alloc(sizeC, cs)

	run := func(o Opts) []T {
		c := append([]T(nil), c0...)
		switch variant {
		case bvBatch:
			GemmBatchOpt(o, nil, batch, m, k, n, al, a, as, b, bs, be, c, cs)
		case bvBatchNT:
			GemmBatchNTOpt(o, nil, batch, m, k, n, al, a, as, b, bs, be, c, cs)
		case bvBatchTN:
			GemmBatchTNOpt(o, nil, batch, m, k, n, al, a, as, b, bs, be, c, cs)
		}
		return c
	}

	naiveC := run(Opts{Kernel: Naive})
	simdC := make([][]T, len(diffWorkers))
	for wi, w := range diffWorkers {
		simdC[wi] = run(Opts{Kernel: SIMD, Workers: w})
	}

	// Per-item float64 reference with the magnitude bound, checked against
	// both families; elements outside every item (stride padding) must be
	// untouched.
	eps := epsOf[T]()
	rows, red := m, k
	if variant == bvBatchTN {
		rows, red = k, m
	}
	for g := 0; g < batch; g++ {
		var aAt, bAt func(i, p int) float64
		ag, bg := a[g*as:], b[g*bs:]
		switch variant {
		case bvBatchNT:
			aAt = func(i, p int) float64 { return float64(ag[i*k+p]) }
			bAt = func(p, j int) float64 { return float64(bg[j*k+p]) }
		case bvBatchTN:
			aAt = func(i, p int) float64 { return float64(ag[p*k+i]) }
			bAt = func(p, j int) float64 { return float64(bg[p*n+j]) }
		default:
			aAt = func(i, p int) float64 { return float64(ag[i*k+p]) }
			bAt = func(p, j int) float64 { return float64(bg[p*n+j]) }
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				var s, abs float64
				for p := 0; p < red; p++ {
					v := aAt(i, p) * bAt(p, j)
					s += v
					abs += math.Abs(v)
				}
				c0v := float64(c0[g*cs+i*n+j])
				ref := alpha*s + beta*c0v
				bnd := math.Abs(alpha)*abs + math.Abs(beta*c0v)
				tol := gemmTol(eps, red, bnd)
				for _, got := range []struct {
					fam string
					c   []T
				}{{"naive", naiveC}, {"simd", simdC[0]}} {
					if d := math.Abs(float64(got.c[g*cs+i*n+j]) - ref); d > tol {
						t.Fatalf("%s %s: item %d element (%d,%d): got %g want %g (|diff| %g > tol %g)",
							label, got.fam, g, i, j, float64(got.c[g*cs+i*n+j]), ref, d, tol)
					}
				}
			}
		}
	}
	checkBatchGaps(t, label+" naive", naiveC, c0, batch, rows*n, cs)
	checkBatchGaps(t, label+" simd", simdC[0], c0, batch, rows*n, cs)
	for wi := 1; wi < len(diffWorkers); wi++ {
		checkBitIdentical(t, fmt.Sprintf("%s workers=%d", label, diffWorkers[wi]), simdC[wi], simdC[0])
	}
}

// checkBatchGaps asserts the padding between C items was not written.
func checkBatchGaps[T Float](t *testing.T, label string, got, orig []T, batch, size, stride int) {
	t.Helper()
	for g := 0; g < batch; g++ {
		hi := stride
		if g == batch-1 {
			hi = size
		}
		for off := size; off < hi; off++ {
			if got[g*stride+off] != orig[g*stride+off] {
				t.Fatalf("%s: item %d wrote into stride padding at +%d", label, g, off)
			}
		}
	}
}

func testGemmBatchDifferential[T Float](t *testing.T) {
	for variant := 0; variant < numBatchVariants; variant++ {
		variant := variant
		t.Run(batchVariantNames[variant], func(t *testing.T) {
			for si, shape := range batchShapes {
				batch, m, k, n := shape[0], shape[1], shape[2], shape[3]
				for mi := batchStrideMode(0); mi < numStrideModes; mi++ {
					ab := batchAlphaBeta[(si+int(mi))%len(batchAlphaBeta)]
					runGemmBatchCase[T](t, variant, batch, m, k, n, mi, ab[0], ab[1], int64(1000*si+10*int(mi)+variant))
				}
			}
			// Full alpha/beta sweep on one representative descriptor shape.
			for ai, ab := range batchAlphaBeta {
				runGemmBatchCase[T](t, variant, 5, 32, 12, 4, strideTight, ab[0], ab[1], int64(9000+ai))
			}
		})
	}
}

func TestGemmBatchDifferentialFloat64(t *testing.T) { testGemmBatchDifferential[float64](t) }
func TestGemmBatchDifferentialFloat32(t *testing.T) { testGemmBatchDifferential[float32](t) }

// The batched family must agree bitwise with per-item single-GEMM calls on
// the naive loops it runs: batching changes scheduling, never the per-item
// accumulation order.
func TestGemmBatchMatchesSingleNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const batch, m, k, n = 6, 130, 70, 36
	a := make([]float64, batch*m*k)
	b := make([]float64, batch*k*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	single := make([]float64, batch*m*n)
	for g := 0; g < batch; g++ {
		GemmOpt(Opts{Kernel: Naive}, nil, 1,
			MatrixFrom(m, k, a[g*m*k:(g+1)*m*k]),
			MatrixFrom(k, n, b[g*k*n:(g+1)*k*n]),
			0, MatrixFrom(m, n, single[g*m*n:(g+1)*m*n]))
	}
	for _, w := range diffWorkers {
		batched := make([]float64, batch*m*n)
		GemmBatchOpt(Opts{Workers: w}, nil, batch, m, k, n, 1, a, m*k, b, k*n, 0, batched, m*n)
		checkBitIdentical(t, fmt.Sprintf("batch-vs-single workers=%d", w), batched, single)
	}
}

// Invalid layouts must be rejected loudly: an overlapping output stride
// would let two items race on the same C elements.
func TestGemmBatchRejectsOverlapAndShortSlices(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := make([]float64, 100)
	b := make([]float64, 100)
	c := make([]float64, 100)
	expectPanic("overlapping C", func() {
		GemmBatchOpt(Opts{}, nil, 2, 4, 2, 4, 1, a, 8, b, 8, 0, c, 8) // item 16 > stride 8
	})
	expectPanic("short A", func() {
		GemmBatchOpt(Opts{}, nil, 4, 8, 8, 1, 1, a, 64, b, 8, 0, c, 8)
	})
	expectPanic("negative stride", func() {
		GemmBatchOpt(Opts{}, nil, 2, 2, 2, 2, 1, a, -4, b, 4, 0, c, 4)
	})
}
