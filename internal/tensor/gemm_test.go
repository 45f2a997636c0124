package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(n^3) triple loop used to validate the
// optimized kernels.
func naiveMul(a, b Matrix[float64]) Matrix[float64] {
	c := NewMatrix[float64](a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for l := 0; l < a.Cols; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Data[i*c.Cols+j] = s
		}
	}
	return c
}

func randMat(rng *rand.Rand, rows, cols int) Matrix[float64] {
	m := NewMatrix[float64](rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func matsClose(t *testing.T, got, want Matrix[float64], tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("element %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 1, 9}, {16, 16, 16}, {33, 17, 29}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		c := NewMatrix[float64](m, n)
		GemmOpt(Opts{}, nil, 1, a, b, 0, c)
		matsClose(t, c, naiveMul(a, b), 1e-12)
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 5, 6), randMat(rng, 6, 7)
	c0 := randMat(rng, 5, 7)
	c := c0.Clone()
	GemmOpt(Opts{}, nil, 2.5, a, b, -0.5, c)
	ref := naiveMul(a, b)
	for i := range ref.Data {
		ref.Data[i] = 2.5*ref.Data[i] - 0.5*c0.Data[i]
	}
	matsClose(t, c, ref, 1e-12)
}

func TestGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, bT := randMat(rng, 4, 6), randMat(rng, 5, 6) // B^T stored: 5x6 means B is 6x5
	c := NewMatrix[float64](4, 5)
	GemmNTOpt(Opts{}, nil, 1, a, bT, 0, c)
	// reference: transpose bT and multiply
	b := NewMatrix[float64](6, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 6; j++ {
			b.Data[j*b.Cols+i] = bT.At(i, j)
		}
	}
	matsClose(t, c, naiveMul(a, b), 1e-12)
}

func TestGemmTN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	aT, b := randMat(rng, 6, 4), randMat(rng, 6, 5) // A^T stored as 6x4 means A is 4x6
	c := NewMatrix[float64](4, 5)
	GemmTNOpt(Opts{}, nil, 1, aT, b, 0, c)
	a := NewMatrix[float64](4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			a.Data[j*a.Cols+i] = aT.At(i, j)
		}
	}
	matsClose(t, c, naiveMul(a, b), 1e-12)
}

func TestGemmAccumulatesWithBetaOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randMat(rng, 3, 3), randMat(rng, 3, 3)
	c := NewMatrix[float64](3, 3)
	GemmOpt(Opts{}, nil, 1, a, b, 0, c)
	first := c.Clone()
	GemmOpt(Opts{}, nil, 1, a, b, 1, c)
	for i := range c.Data {
		if math.Abs(c.Data[i]-2*first.Data[i]) > 1e-12 {
			t.Fatalf("beta=1 accumulation failed at %d", i)
		}
	}
}

// Property: GEMM is linear in A, i.e. (A1+A2)*B == A1*B + A2*B.
func TestGemmLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a1, a2, b := randMat(rng, m, k), randMat(rng, m, k), randMat(rng, k, n)
		sum := NewMatrix[float64](m, k)
		for i := range sum.Data {
			sum.Data[i] = a1.Data[i] + a2.Data[i]
		}
		c1 := NewMatrix[float64](m, n)
		c2 := NewMatrix[float64](m, n)
		cs := NewMatrix[float64](m, n)
		GemmOpt(Opts{}, nil, 1, a1, b, 0, c1)
		GemmOpt(Opts{}, nil, 1, a2, b, 1, c1) // accumulate
		GemmOpt(Opts{}, nil, 1, sum, b, 0, cs)
		GemmOpt(Opts{}, nil, 1, a1, b, 0, c2)
		_ = c2
		for i := range cs.Data {
			if math.Abs(cs.Data[i]-c1.Data[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndAxpy(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7}
	b := []float64{7, 6, 5, 4, 3, 2, 1}
	if got := dot(a, b); got != 84 {
		t.Fatalf("dot = %v, want 84", got)
	}
	dst := make([]float64, 7)
	axpy(2, a, dst)
	for i := range dst {
		if dst[i] != 2*a[i] {
			t.Fatalf("axpy wrong at %d: %v", i, dst[i])
		}
	}
}

func TestGemmFLOPAccounting(t *testing.T) {
	ctr := newTestCounter()
	a, b := NewMatrix[float64](3, 4), NewMatrix[float64](4, 5)
	c := NewMatrix[float64](3, 5)
	GemmOpt(Opts{}, ctr, 1, a, b, 0, c)
	if got, want := ctr.FLOPs(), int64(2*3*4*5); got != want {
		t.Fatalf("FLOPs = %d, want %d", got, want)
	}
}

func TestGemmPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	a, b := NewMatrix[float64](3, 4), NewMatrix[float64](5, 6)
	c := NewMatrix[float64](3, 6)
	GemmOpt(Opts{}, nil, 1, a, b, 0, c)
}
