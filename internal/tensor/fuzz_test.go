package tensor

import (
	"math"
	"testing"

	"deepmd-go/internal/tensor/cpufeat"
)

// FuzzGemm is the differential fuzz harness for the whole GEMM family: the
// fuzzer drives shape, alpha/beta, variant, precision and the forced SIMD
// kernel family, and every case is checked against the naive reference /
// float64 recomputation under the tolerance policy of differential_test.go
// (plus bit-identity across worker counts). CI runs it for 30 s on every
// PR:
//
//	go test -fuzz=FuzzGemm -fuzztime=30s ./internal/tensor/
func FuzzGemm(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(8), uint8(4), 1.0, 0.0, uint8(0), uint8(1), false)
	f.Add(int64(2), uint8(33), uint16(65), uint8(9), 2.5, -0.5, uint8(1), uint8(2), true)
	f.Add(int64(3), uint8(0), uint16(1), uint8(129), 0.0, 1.0, uint8(2), uint8(7), false)
	f.Add(int64(4), uint8(130), uint16(240), uint8(17), -1.0, 0.3, uint8(3), uint8(3), true)
	f.Add(int64(5), uint8(64), uint16(50), uint8(100), 1.0, 1.0, uint8(4), uint8(5), false)
	f.Add(int64(6), uint8(255), uint16(255), uint8(255), 0.5, 1.0, uint8(0), uint8(7), true)
	// Beyond one K panel of the strip tier (simdMaxK = 256): the paper's
	// first fitting layer with copper's 244-row chunk (30 strips + a
	// 4-row tail strip) under every variant that reaches the strips, and
	// panel-boundary depths with row and column remainders.
	f.Add(int64(7), uint8(244), uint16(1600), uint8(240), 1.0, 0.0, uint8(3), uint8(2), true)
	f.Add(int64(8), uint8(244), uint16(1600), uint8(240), 1.0, 0.0, uint8(4), uint8(1), false)
	f.Add(int64(9), uint8(13), uint16(513), uint8(31), 2.5, -0.5, uint8(0), uint8(1), false)
	f.Add(int64(10), uint8(9), uint16(257), uint8(17), 1.0, 1.0, uint8(0), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, um uint8, uk uint16, un uint8, alpha, beta float64, variant, famSel uint8, single bool) {
		// k reaches 2047: eight K panels of the strip tier, well past
		// 2*simdMaxK+1.
		m, k, n := int(um), int(uk)%2048, int(un)
		v := int(variant) % numVariants
		// Saturated scale factors only probe overflow, not kernel logic;
		// clamp to a range where the tolerance bound stays meaningful.
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 8 {
			alpha = 1
		}
		if math.IsNaN(beta) || math.IsInf(beta, 0) || math.Abs(beta) > 8 {
			beta = 0
		}
		// Force one of the executable kernel families (Generic included) so
		// the fuzzer exercises every compiled code path, not just the
		// host's best. The worker sweep in runGemmVariantCase runs 1/2/7
		// with the bit-identity contract under whichever family is active.
		fams := simdTestFamilies()
		prev := cpufeat.Active()
		if _, err := cpufeat.SetActive(fams[int(famSel)%len(fams)]); err != nil {
			t.Fatal(err)
		}
		defer cpufeat.SetActive(prev)
		if single {
			runGemmVariantCase[float32](t, v, m, k, n, alpha, beta, seed)
		} else {
			runGemmVariantCase[float64](t, v, m, k, n, alpha, beta, seed)
		}
	})
}
