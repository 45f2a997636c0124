package descriptor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/tensor"
)

// mixedSlice returns n normal deviates with zeros, negative zeros and
// subnormals mixed in.
func mixedSlice[T tensor.Float](rng *rand.Rand, n int) []T {
	tiny := T(math.SmallestNonzeroFloat64)
	if _, f32 := any(tiny).(float32); f32 {
		tiny = T(math.SmallestNonzeroFloat32)
	}
	s := make([]T, n)
	for i := range s {
		switch rng.Intn(10) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = T(math.Copysign(0, -1))
		case 2:
			s[i] = tiny * T(1+rng.Intn(1000))
		default:
			s[i] = T(rng.NormFloat64())
		}
	}
	return s
}

// transposed returns the m x 4 matrix of a 4 x m item, every entry scaled.
func transposed[T tensor.Float](item []T, m int, scale T) tensor.Matrix[T] {
	out := tensor.NewMatrix[T](m, 4)
	for c := 0; c < m; c++ {
		for j := 0; j < 4; j++ {
			out.Data[c*4+j] = item[j*m+c] * scale
		}
	}
	return out
}

// requireBits fails unless got and want agree bit for bit, signed zeros
// included.
func requireBits[T tensor.Float](t *testing.T, label string, got, want []T) {
	t.Helper()
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s[%d] = %g, want %g", label, i, float64(got[i]), float64(want[i]))
		}
	}
}

// testDescriptorProducts holds the descriptor products to the naive GEMMs
// they replaced, bit for bit: D = T·T[:ax]ᵀ against GemmNT on the scaled,
// transposed item, and the item gradient against dD·T[:ax] (Gemm) plus
// dDᵀ·T (GemmTN) added into the head rows, then scaled. Channel 1 of the
// item is all negative zeros and the head channel 0 positive, so every
// product of D[1][0] is -0: the naive dot sums them in lanes that start
// from +0 and gets +0, where a sum seeded with its first product keeps -0.
func testDescriptorProducts[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	naive := tensor.Opts{Kernel: tensor.Naive}
	for _, shape := range [][2]int{{16, 4}, {100, 16}, {16, 16}} {
		m, ax := shape[0], shape[1]
		label := fmt.Sprintf("%T m=%d ax=%d", T(0), m, ax)
		scale := T(1.0 / 138)
		item := mixedSlice[T](rng, 4*m)
		for j := 0; j < 4; j++ {
			item[j*m] = T(1 + rng.Float64())
			item[j*m+1] = T(math.Copysign(0, -1))
		}
		tm := transposed(item, m, scale)
		tsub := tensor.MatrixFrom(ax, 4, tm.Data[:ax*4])

		scaled := append([]T(nil), item...)
		for i := range scaled {
			scaled[i] *= scale
		}
		d := make([]T, m*ax)
		ContractDescriptor(scaled, m, ax, d)
		wantD := tensor.NewMatrix[T](m, ax)
		tensor.GemmNTOpt(naive, nil, 1, tm, tsub, 0, wantD)
		requireBits(t, label+" D", d, wantD.Data)

		dD := tensor.MatrixFrom(m, ax, mixedSlice[T](rng, m*ax))
		wantT := tensor.NewMatrix[T](m, 4)
		tensor.GemmOpt(naive, nil, 1, dD, tsub, 0, wantT)
		dTsub := tensor.NewMatrix[T](ax, 4)
		tensor.GemmTNOpt(naive, nil, 1, dD, tm, 0, dTsub)
		for i, v := range dTsub.Data {
			wantT.Data[i] += v
		}
		for i := range wantT.Data {
			wantT.Data[i] *= scale
		}
		ContractDescriptorBackward(dD.Data, m, ax, scale, scaled, make([]T, 8*ax))
		requireBits(t, label+" dT", transposed(scaled, m, 1).Data, wantT.Data)
	}
}

func TestDescriptorProductsMatchNaiveGemm(t *testing.T) {
	t.Run("float64", testDescriptorProducts[float64])
	t.Run("float32", testDescriptorProducts[float32])
}
