package descriptor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

func randSlice[T tensor.Float](rng *rand.Rand, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = T(rng.NormFloat64())
	}
	return s
}

// testContractions checks the four contractions of one tile against plain
// double-precision loops within the recursive-summation bound
// (terms+4)·eps·Σ|term|, and that ContractRows and ContractOuter give a
// row the same bits whether it is evaluated alone or anywhere in a tile —
// what lets the exact operator's tiles span atoms without the result
// depending on chunk composition.
func testContractions[T tensor.Float](t *testing.T, eps float64) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{7, 16, 100} {
		for _, nk := range []int{0, 1, 2, 3, 4, 5, 16, 33} {
			label := fmt.Sprintf("%T m=%d nk=%d", T(0), m, nk)
			g, dg := randSlice[T](rng, nk*m), randSlice[T](rng, nk*m)
			rows, dT := randSlice[T](rng, 4*nk), randSlice[T](rng, 4*m)
			acc0 := randSlice[T](rng, 4*m)
			within := func(what string, got T, want, abs float64, terms int) {
				t.Helper()
				if d := math.Abs(float64(got) - want); d > float64(terms+4)*eps*abs {
					t.Fatalf("%s %s: got %g, want %g (|diff| %g > bound %g)", label, what, float64(got), want, d, float64(terms+4)*eps*abs)
				}
			}

			acc := append([]T(nil), acc0...)
			ContractForward(g, rows, m, acc)
			for j := 0; j < 4; j++ {
				for c := 0; c < m; c++ {
					want, abs := float64(acc0[j*m+c]), math.Abs(float64(acc0[j*m+c]))
					for i := 0; i < nk; i++ {
						v := float64(g[i*m+c]) * float64(rows[4*i+j])
						want, abs = want+v, abs+math.Abs(v)
					}
					within(fmt.Sprintf("forward[%d][%d]", j, c), acc[j*m+c], want, abs, nk+1)
				}
			}

			ab := randSlice[T](rng, 8*nk)
			ContractBackward(g, dg, dT, nk, m, ab)
			out := randSlice[T](rng, 4*nk)
			ContractRows(g, dT, nk, m, out, make([]T, 8*((nk+1)/2)))
			dG := randSlice[T](rng, nk*m)
			ContractOuter(rows, dT, m, dG, make([]T, 4*m))
			for i := 0; i < nk; i++ {
				for j := 0; j < 4; j++ {
					var a, aAbs, b, bAbs float64
					for c := 0; c < m; c++ {
						va, vb := float64(g[i*m+c])*float64(dT[j*m+c]), float64(dg[i*m+c])*float64(dT[j*m+c])
						a, aAbs, b, bAbs = a+va, aAbs+math.Abs(va), b+vb, bAbs+math.Abs(vb)
					}
					within(fmt.Sprintf("backward a[%d][%d]", i, j), ab[8*i+j], a, aAbs, m)
					within(fmt.Sprintf("backward b[%d][%d]", i, j), ab[8*i+4+j], b, bAbs, m)
					within(fmt.Sprintf("rows[%d][%d]", i, j), out[4*i+j], a, aAbs, m)
				}
				for c := 0; c < m; c++ {
					var want, abs float64
					for j := 0; j < 4; j++ {
						v := float64(rows[4*i+j]) * float64(dT[j*m+c])
						want, abs = want+v, abs+math.Abs(v)
					}
					within(fmt.Sprintf("outer[%d][%d]", i, c), dG[i*m+c], want, abs, 4)
				}

				one, oneG := make([]T, 4), make([]T, m)
				ContractRows(g[i*m:(i+1)*m], dT, 1, m, one, make([]T, 8))
				ContractOuter(rows[4*i:4*i+4], dT, m, oneG, make([]T, 4*m))
				for j := range one {
					if one[j] != out[4*i+j] {
						t.Fatalf("%s rows[%d][%d]: %g alone, %g in the tile", label, i, j, float64(one[j]), float64(out[4*i+j]))
					}
				}
				for c := range oneG {
					if oneG[c] != dG[i*m+c] {
						t.Fatalf("%s outer[%d][%d]: %g alone, %g in the tile", label, i, c, float64(oneG[c]), float64(dG[i*m+c]))
					}
				}
			}
		}
	}
}

func TestContractionsDifferential(t *testing.T) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range []cpufeat.Family{cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512} {
		if !cpufeat.Available(fam) {
			continue
		}
		t.Run(fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			testContractions[float64](t, 1.0/(1<<52))
			testContractions[float32](t, 1.0/(1<<23))
		})
	}
}
