package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepmd-go/internal/perf"
)

func newTestCounter() *perf.Counter { return perf.NewCounter() }

// The central fusion claim of Sec. 5.3.1: MATMUL followed by SUM equals one
// fused GemmBias call.
func TestGemmBiasEqualsMatMulPlusSum(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, w := randMat(rng, 9, 5), randMat(rng, 5, 11)
	bias := make([]float64, 11)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	unfused := BiasAdd(nil, MatMul(nil, x, w), bias)
	fused := NewMatrix[float64](9, 11)
	GemmBiasOpt(Opts{}, nil, x, w, bias, fused)
	matsClose(t, fused, unfused, 1e-12)
}

// The fusion claim of Sec. 5.3.2: CONCAT + SUM equals the in-place strided
// skip add, with no (x, x) materialization.
func TestAddSkipDoubleEqualsConcatPlusSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randMat(rng, 6, 4)
	y := randMat(rng, 6, 8)
	unfused := Add(nil, ConcatCols(nil, x), y)
	fused := y.Clone()
	AddSkipDouble(nil, x, fused)
	matsClose(t, fused, unfused, 1e-12)
}

// The fusion claim of Sec. 5.3.3: the fused TANH+TANHGrad kernel equals the
// two standard passes.
func TestGemmBiasTanhGradEqualsSeparateOps(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, w := randMat(rng, 7, 3), randMat(rng, 3, 5)
	bias := make([]float64, 5)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	pre := BiasAdd(nil, MatMul(nil, x, w), bias)
	wantY := Tanh(nil, pre)
	wantG := TanhGrad(nil, wantY)

	y := NewMatrix[float64](7, 5)
	g := NewMatrix[float64](7, 5)
	GemmBiasTanhGradOpt(Opts{}, nil, x, w, bias, y, g)
	matsClose(t, y, wantY, 1e-12)
	matsClose(t, g, wantG, 1e-12)
}

func TestGemmBiasTanhGradSkipsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, w := randMat(rng, 4, 3), randMat(rng, 3, 2)
	bias := []float64{0.1, -0.2}
	y := NewMatrix[float64](4, 2)
	GemmBiasTanhGradOpt(Opts{}, nil, x, w, bias, y, Matrix[float64]{})
	pre := BiasAdd(nil, MatMul(nil, x, w), bias)
	matsClose(t, y, Tanh(nil, pre), 1e-12)
}

func TestAddSkipSameAndBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y := randMat(rng, 5, 5), randMat(rng, 5, 5)
	want := Add(nil, x, y)
	got := y.Clone()
	AddSkipSame(nil, x, got)
	matsClose(t, got, want, 1e-12)

	// Backward of double skip: dx gets both halves of dy.
	dy := randMat(rng, 3, 8)
	dx := NewMatrix[float64](3, 4)
	SkipDoubleBackward(nil, dy, dx)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			want := dy.At(i, j) + dy.At(i, j+4)
			if math.Abs(dx.At(i, j)-want) > 1e-12 {
				t.Fatalf("SkipDoubleBackward wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestTanhF32Accuracy(t *testing.T) {
	// The float32 Pade tanh must stay within 2e-4 of the true tanh
	// everywhere and within 2e-5 in the active region |x| <= 4.
	for x := -8.0; x <= 8.0; x += 0.001 {
		got := float64(tanhf(float32(x)))
		want := math.Tanh(x)
		err := math.Abs(got - want)
		if err > 2e-4 {
			t.Fatalf("tanhf(%g) error %g > 2e-4", x, err)
		}
		if math.Abs(x) <= 4 && err > 2e-5 {
			t.Fatalf("tanhf(%g) error %g > 2e-5 in active region", x, err)
		}
		if got > 1 || got < -1 {
			t.Fatalf("tanhf(%g) = %g outside [-1, 1]", x, got)
		}
	}
}

func TestTanhF32Property(t *testing.T) {
	// Odd symmetry and monotonicity of the approximant.
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		if x > 100 || x < -100 {
			x = float32(math.Mod(float64(x), 100))
		}
		return tanhf(-x) == -tanhf(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaReuse(t *testing.T) {
	a := NewArena[float64](100)
	s1 := a.Take(60)
	if len(s1) != 60 {
		t.Fatalf("len = %d", len(s1))
	}
	s1[0] = 42
	s2 := a.Take(60) // overflows, heap fallback
	if len(s2) != 60 {
		t.Fatalf("overflow len = %d", len(s2))
	}
	if a.Peak() != 120 {
		t.Fatalf("peak = %d, want 120", a.Peak())
	}
	a.Reset()
	s3 := a.Take(60)
	if s3[0] != 0 {
		t.Fatal("arena slice not zeroed after reuse")
	}
	if a.Peak() != 60 {
		t.Fatalf("peak after reset = %d", a.Peak())
	}
}

func TestArenaMatrixAndBytes(t *testing.T) {
	a := NewArena[float32](50)
	m := a.TakeMatrix(5, 6)
	if m.Rows != 5 || m.Cols != 6 {
		t.Fatalf("matrix shape %dx%d", m.Rows, m.Cols)
	}
	if a.Bytes() != 200 {
		t.Fatalf("f32 arena bytes = %d, want 200", a.Bytes())
	}
	b := NewArena[float64](50)
	if b.Bytes() != 400 {
		t.Fatalf("f64 arena bytes = %d, want 400", b.Bytes())
	}
}

func TestMulInto(t *testing.T) {
	a := MatrixFrom(1, 3, []float64{1, 2, 3})
	b := MatrixFrom(1, 3, []float64{4, 5, 6})
	dst := NewMatrix[float64](1, 3)
	MulInto(nil, a, b, dst)
	want := []float64{4, 10, 18}
	for i, v := range dst.Data {
		if v != want[i] {
			t.Fatalf("MulInto[%d] = %v, want %v", i, v, want[i])
		}
	}
}
