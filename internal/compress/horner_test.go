package compress

import (
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/nn"
	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// hornerFamilies returns Generic plus every SIMD family the host can
// execute, so the differential sweep covers all compiled code paths.
func hornerFamilies() []cpufeat.Family {
	fams := []cpufeat.Family{cpufeat.Generic}
	for _, f := range []cpufeat.Family{cpufeat.AVX2, cpufeat.AVX512} {
		if cpufeat.Available(f) {
			fams = append(fams, f)
		}
	}
	return fams
}

// buildTestTable fits a small random net with m output channels so the
// coefficients exercise all six slabs with non-trivial values.
func buildTestTable(t testing.TB, m int) *Table[float64] {
	t.Helper()
	net := nn.NewEmbeddingNet[float64](rand.New(rand.NewSource(7)), []int{4, m})
	tb, err := Build(net, Spec{SMin: 0, SMax: 2, NSeg: 64})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestHornerSIMDBitIdentical locks the vectorized Horner kernels to the
// scalar recursion bitwise: the lanes use the same mul/add sequence (two
// roundings per step, never FMA), so every family must produce the exact
// bits of the Generic path — both precisions, channel counts hitting the
// main chunk, the remainder chunk and the scalar tail, and inputs at
// knots (u = 0), segment interiors, domain edges and out of domain.
func TestHornerSIMDBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inputs := []float64{0, 0.25, 1, 1.999, 2, 2.5, -0.5, 1.0 / 3.0}
	for i := 0; i < 24; i++ {
		inputs = append(inputs, rng.Float64()*2.4-0.2)
	}
	for _, m := range []int{1, 3, 4, 7, 8, 11, 16, 25, 50, 100} {
		tb64 := buildTestTable(t, m)
		tb32 := Convert[float32](tb64)
		checkHornerFamilies(t, tb64, inputs, m)
		checkHornerFamilies(t, tb32, inputs, m)
	}
}

func checkHornerFamilies[T tensor.Float](t *testing.T, tb *Table[T], inputs []float64, m int) {
	t.Helper()
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)

	n := len(inputs)
	s := make([]T, n)
	for i, x := range inputs {
		s[i] = T(x)
	}
	if _, err := cpufeat.SetActive(cpufeat.Generic); err != nil {
		t.Fatal(err)
	}
	refG := make([]T, n*m)
	refD := make([]T, n*m)
	tb.EvalBatch(nil, s, refG, refD)

	for _, fam := range hornerFamilies()[1:] {
		if _, err := cpufeat.SetActive(fam); err != nil {
			t.Fatal(err)
		}
		gotG := make([]T, n*m)
		gotD := make([]T, n*m)
		tb.EvalBatch(nil, s, gotG, gotD)
		for i := range refG {
			if !bitsEqual(gotG[i], refG[i]) || !bitsEqual(gotD[i], refD[i]) {
				t.Fatalf("%v m=%d row %d ch %d: value %v/%v deriv %v/%v (want generic bits)",
					fam, m, i/m, i%m, gotG[i], refG[i], gotD[i], refD[i])
			}
		}
	}
}

func bitsEqual[T tensor.Float](a, b T) bool {
	switch x := any(a).(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	}
	return false
}

// TestHornerSIMDKnotExact re-asserts the knot-exactness contract with the
// SIMD path active: at u = 0 the value lanes must reproduce the stored
// knot sample (slab c0) bitwise, exactly like the scalar recursion.
func TestHornerSIMDKnotExact(t *testing.T) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	m := 25
	tb := buildTestTable(t, m)
	h := tb.H()
	g := make([]float64, m)
	dg := make([]float64, m)
	for _, fam := range hornerFamilies() {
		if _, err := cpufeat.SetActive(fam); err != nil {
			t.Fatal(err)
		}
		for _, seg := range []int{0, 1, 31, 63} {
			tb.Eval(tb.SMin+float64(seg)*h, g, dg)
			base := seg * coefPerSeg * m
			for c := 0; c < m; c++ {
				if math.Float64bits(g[c]) != math.Float64bits(tb.Coef[base+c]) {
					t.Fatalf("%v seg %d ch %d: knot value %v != stored %v", fam, seg, c, g[c], tb.Coef[base+c])
				}
			}
		}
	}
}
