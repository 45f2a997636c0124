package compress

import (
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/nn"
	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// hornerFamilies returns Generic plus AVX2 where the host executes it:
// the Horner row kernels are AVX2's, and AVX-512 dispatches to them too.
func hornerFamilies() []cpufeat.Family {
	fams := []cpufeat.Family{cpufeat.Generic}
	if cpufeat.Available(cpufeat.AVX2) {
		fams = append(fams, cpufeat.AVX2)
	}
	return fams
}

// fusedFamilies adds AVX-512, whose float32 tile kernels the fused
// operator runs, so its sweeps cover every compiled code path.
func fusedFamilies() []cpufeat.Family {
	fams := hornerFamilies()
	if cpufeat.Available(cpufeat.AVX512) {
		fams = append(fams, cpufeat.AVX512)
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
// bits of the Generic path — both precisions, channel counts on both
// sides of every chunk width (the AVX2 kernels' 4/8 and 8/16, with the
// scalar tail behind them), and inputs at knots (u = 0), segment
// interiors, domain edges and out of domain.
func TestHornerSIMDBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inputs := []float64{0, 0.25, 1, 1.999, 2, 2.5, -0.5, 1.0 / 3.0}
	for seg := 1; seg < 64; seg += 9 {
		inputs = append(inputs, float64(seg)/32) // knots of the 64-segment table on [0, 2]
	}
	for i := 0; i < 24; i++ {
		inputs = append(inputs, rng.Float64()*2.4-0.2)
	}
	for _, m := range []int{1, 3, 4, 7, 8, 11, 15, 16, 17, 25, 31, 32, 33, 50, 100} {
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
		// Guard elements behind both outputs: the kernels write nothing
		// past the row.
		const guard = 40
		gotG := make([]T, n*m+guard)
		gotD := make([]T, n*m+guard)
		for i := n * m; i < len(gotG); i++ {
			gotG[i], gotD[i] = 7, 7
		}
		tb.EvalBatch(nil, s, gotG[:n*m], gotD[:n*m])
		for i := n * m; i < len(gotG); i++ {
			if gotG[i] != 7 || gotD[i] != 7 {
				t.Fatalf("%v m=%d: guard element %d written", fam, m, i-n*m)
			}
		}
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
