package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the GEMM family: every variant's SIMD-family
// dispatch is checked against the retained naive reference (and a float64
// recomputation)
// across randomized shapes — including m/n/k in {0, 1} and odd remainders
// smaller than every tile size — alpha/beta in {0, 1, other}, both float32
// and float64, at worker counts 1, 2 and 7.
//
// Tolerance policy (documented in DESIGN.md): a k-term accumulation that is
// re-associated (K panels, lane-parallel partial sums, FMA contraction)
// may differ from the reference by a bounded multiple of
// the accumulated magnitude, never of the (possibly cancelled) result. Per
// element:
//
//	|got - ref| <= 4*(k+4)*eps * (|alpha| * sum_l |A[i,l]*B[l,j]| + |beta*C0[i,j]|) + eps
//
// with eps the unit roundoff of the precision under test (2^-52 / 2^-23).
// The naive kernels carry the same O(k*eps) bound, so the SIMD result is
// compared against an exact-input float64 recomputation with this budget.
// Worker counts are held to a far stricter contract: bit-identical output,
// because every C element is produced by exactly one goroutine with the
// same panel and accumulation order as the serial call.

const (
	variantGemm = iota
	variantGemmNT
	variantGemmTN
	variantGemmBias
	variantGemmBiasTanhGrad
	numVariants
)

var variantNames = [numVariants]string{"Gemm", "GemmNT", "GemmTN", "GemmBias", "GemmBiasTanhGrad"}

// diffShapes is (m, k, n): output m x n with reduction depth k. Covers
// empty and unit dims, odd remainders below every tile (strip heights 4
// and 8, the NT row pair, column covers 4, 8 and 16), K panels past
// simdMaxK (256), and the paper's layer shapes (46x25, 92x25 embedding
// rows, 240-wide fitting layers).
var diffShapes = [][3]int{
	{0, 0, 0}, {0, 4, 5}, {4, 0, 5}, {5, 7, 0},
	{1, 1, 1}, {1, 240, 1}, {2, 8, 4}, {3, 5, 7},
	{4, 8, 4}, {5, 9, 3}, {7, 16, 5}, {8, 8, 8},
	{9, 31, 6}, {13, 17, 19}, {16, 64, 16}, {17, 33, 9},
	{31, 25, 50}, {46, 1, 25}, {64, 50, 100}, {92, 25, 10},
	{100, 46, 4}, {127, 65, 33}, {129, 240, 5}, {130, 300, 9},
	{40, 600, 7}, {240, 240, 3}, {257, 12, 31}, {10, 16, 520},
	// Above the auto-serial threshold (2*m*n*k >= simdParMin), so the worker
	// sweep genuinely spawns the row-strip goroutines for every variant that
	// reaches a SIMD kernel (the smaller shapes run serially regardless of
	// the requested count).
	{256, 64, 128},
}

var diffAlphaBeta = [][2]float64{
	{1, 0}, {1, 1}, {0, 0}, {0, 1}, {0, 0.5}, {2.5, -0.5}, {-1, 1}, {0.3, 2},
}

var diffWorkers = []int{1, 2, 7}

func epsOf[T Float]() float64 {
	var z T
	if _, ok := any(z).(float32); ok {
		return 0x1p-23
	}
	return 0x1p-52
}

// gemmTol is the per-element budget of the tolerance policy above.
func gemmTol(eps float64, k int, bnd float64) float64 {
	return 4*(float64(k)+4)*eps*bnd + eps
}

func randMatT[T Float](rng *rand.Rand, rows, cols int) Matrix[T] {
	m := NewMatrix[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64())
	}
	return m
}

// refLinear computes the float64 reference ref[i*n+j] = alpha*sum_p
// A'[i,p]*B'[p,j] + beta*c0[i*n+j] together with the magnitude bound
// bnd[i*n+j] = |alpha|*sum_p |A'[i,p]*B'[p,j]| + |beta*c0[i*n+j]|.
func refLinear(m, n, k int, alpha, beta float64, aAt, bAt func(i, j int) float64, c0 []float64) (ref, bnd []float64) {
	// Dense row-major A' and B'^T first, so the m*n*k loop walks two
	// contiguous rows instead of making two closure calls per term (the
	// 244 x 1600 x 240 cells would otherwise dominate the package's run).
	ar := make([]float64, m*k)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			ar[i*k+p] = aAt(i, p)
		}
	}
	bt := make([]float64, n*k)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			bt[j*k+p] = bAt(p, j)
		}
	}
	ref = make([]float64, m*n)
	bnd = make([]float64, m*n)
	for i := 0; i < m; i++ {
		ai := ar[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			bj := bt[j*k : (j+1)*k]
			var s, abs float64
			for p, av := range ai {
				t := av * bj[p]
				s += t
				abs += math.Abs(t)
			}
			ref[i*n+j] = alpha*s + beta*c0[i*n+j]
			bnd[i*n+j] = math.Abs(alpha)*abs + math.Abs(beta*c0[i*n+j])
		}
	}
	return ref, bnd
}

func checkClose[T Float](t *testing.T, label string, got []T, ref, bnd []float64, k int, scale float64) {
	t.Helper()
	eps := epsOf[T]()
	for i := range got {
		tol := scale * gemmTol(eps, k, bnd[i])
		if d := math.Abs(float64(got[i]) - ref[i]); d > tol {
			t.Fatalf("%s: element %d: got %g want %g (|diff| %g > tol %g)", label, i, float64(got[i]), ref[i], d, tol)
		}
	}
}

func checkBitIdentical[T Float](t *testing.T, label string, got, want []T) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: %g != %g (worker counts must be bit-identical)", label, i, float64(got[i]), float64(want[i]))
		}
	}
}

// runGemmVariantCase exercises one (variant, shape, alpha/beta, precision)
// cell: naive vs float64 reference, the SIMD-family dispatch vs reference,
// and bit-identity across all worker counts. Layers no kernel covers go
// through the same public dispatch — there they assert the SIMD family's
// naive fallback equals the oracle — while the covered ones reach the
// kernels (and, above the auto-serial threshold, their goroutine fan-out).
func runGemmVariantCase[T Float](t *testing.T, variant, m, k, n int, alpha, beta float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	al, be := T(alpha), T(beta)
	label := fmt.Sprintf("%s[%T] %dx%dx%d alpha=%g beta=%g", variantNames[variant], al, m, k, n, alpha, beta)

	var a, b Matrix[T]
	var aAt, bAt func(i, j int) float64
	switch variant {
	case variantGemmNT:
		a, b = randMatT[T](rng, m, k), randMatT[T](rng, n, k)
		aAt = func(i, p int) float64 { return float64(a.At(i, p)) }
		bAt = func(p, j int) float64 { return float64(b.At(j, p)) }
	case variantGemmTN:
		a, b = randMatT[T](rng, k, m), randMatT[T](rng, k, n)
		aAt = func(i, p int) float64 { return float64(a.At(p, i)) }
		bAt = func(p, j int) float64 { return float64(b.At(p, j)) }
	default:
		a, b = randMatT[T](rng, m, k), randMatT[T](rng, k, n)
		aAt = func(i, p int) float64 { return float64(a.At(i, p)) }
		bAt = func(p, j int) float64 { return float64(b.At(p, j)) }
	}

	bias := make([]T, n)
	for i := range bias {
		bias[i] = T(rng.NormFloat64())
	}
	c0 := randMatT[T](rng, m, n)
	c064 := make([]float64, m*n)
	switch variant {
	case variantGemmBias, variantGemmBiasTanhGrad:
		// The fused kernels have implicit alpha = 1 and C0 = broadcast bias.
		alpha, beta = 1, 1
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				c064[i*n+j] = float64(bias[j])
			}
		}
	default:
		for i, v := range c0.Data {
			c064[i] = float64(v)
		}
	}
	ref, bnd := refLinear(m, n, k, alpha, beta, aAt, bAt, c064)

	run := func(o Opts) (Matrix[T], Matrix[T]) {
		c := c0.Clone()
		grad := NewMatrix[T](m, n)
		switch variant {
		case variantGemm:
			GemmOpt(o, nil, al, a, b, be, c)
		case variantGemmNT:
			GemmNTOpt(o, nil, al, a, b, be, c)
		case variantGemmTN:
			GemmTNOpt(o, nil, al, a, b, be, c)
		case variantGemmBias:
			GemmBiasOpt(o, nil, a, b, bias, c)
		case variantGemmBiasTanhGrad:
			GemmBiasTanhGradOpt(o, nil, a, b, bias, c, grad)
		}
		return c, grad
	}

	naiveC, naiveG := run(Opts{Kernel: Naive})
	simdC := make([]Matrix[T], len(diffWorkers))
	simdG := make([]Matrix[T], len(diffWorkers))
	for wi, w := range diffWorkers {
		simdC[wi], simdG[wi] = run(Opts{Kernel: SIMD, Workers: w})
	}

	if variant == variantGemmBiasTanhGrad {
		// tanh is 1-Lipschitz, so pre-activation error propagates with at
		// most unit gain; comparing naive against SIMD doubles the
		// budget, and the gradient 1-y^2 at most doubles it again. The
		// float32 path additionally shares one tanh approximant, which
		// cancels in the naive-vs-SIMD comparison.
		ref64 := make([]float64, m*n)
		for i, v := range naiveC.Data {
			ref64[i] = float64(v)
		}
		checkClose(t, label+" y", simdC[0].Data, ref64, bnd, k, 2)
		for i, v := range naiveG.Data {
			ref64[i] = float64(v)
		}
		checkClose(t, label+" grad", simdG[0].Data, ref64, bnd, k, 4)
	} else {
		checkClose(t, label+" naive", naiveC.Data, ref, bnd, k, 1)
		checkClose(t, label+" simd", simdC[0].Data, ref, bnd, k, 1)
	}
	for wi := 1; wi < len(diffWorkers); wi++ {
		wl := fmt.Sprintf("%s workers=%d", label, diffWorkers[wi])
		checkBitIdentical(t, wl, simdC[wi].Data, simdC[0].Data)
		checkBitIdentical(t, wl+" grad", simdG[wi].Data, simdG[0].Data)
	}
}

func testGemmDifferential[T Float](t *testing.T) {
	for variant := 0; variant < numVariants; variant++ {
		variant := variant
		t.Run(variantNames[variant], func(t *testing.T) {
			for si, shape := range diffShapes {
				m, k, n := shape[0], shape[1], shape[2]
				if variant >= variantGemmBias {
					// Fused kernels take no alpha/beta; one cell per shape.
					runGemmVariantCase[T](t, variant, m, k, n, 1, 1, int64(1000+si))
					continue
				}
				for ai, ab := range diffAlphaBeta {
					runGemmVariantCase[T](t, variant, m, k, n, ab[0], ab[1], int64(100*si+ai))
				}
			}
		})
	}
}

func TestGemmDifferentialFloat64(t *testing.T) { testGemmDifferential[float64](t) }
func TestGemmDifferentialFloat32(t *testing.T) { testGemmDifferential[float32](t) }

// The strips must agree with naive on a product that crosses every panel
// boundary of simdRowRange at once — two K panels, two column chunks plus
// a column tail, a tail strip below every strip height — under every
// variant that reaches them; the shape table above crosses one boundary at
// a time.
func TestGemmAllPanelBoundariesAtOnce(t *testing.T) {
	for _, v := range []int{variantGemm, variantGemmTN, variantGemmBias} {
		runGemmVariantCase[float64](t, v, 131, simdMaxK+3, simdNC+9, 1.5, -0.5, 42)
		runGemmVariantCase[float32](t, v, 131, simdMaxK+3, simdNC+9, 1.5, -0.5, 43)
	}
}
