package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGemmShapes reports the GFLOP/s of the GEMM entry points at the
// model's shapes (M, K, N): the embedding net's three layers on a 128-row
// tile — 1→25, 25→50, 50→100 — and the fitting net's 240-wide hidden layer
// and its 1600-deep first layer on a 256-row block. Each shape runs in both
// precisions as NN (GemmOpt, C = A·B), NN with the fused tanh-grad
// epilogue (GemmBiasTanhGradOpt) and NT (GemmNTOpt, C = A·Bᵀ with B stored
// N x K), on the active kernel family. The FLOP count is 2·M·K·N for every
// variant, so the numbers compare across variants and with the per-core
// FMA peak quoted in DESIGN.md ("SIMD microkernels").
//
//	go test -run xxx -bench BenchmarkGemmShapes ./internal/tensor/
func BenchmarkGemmShapes(b *testing.B) {
	shapes := [][3]int{{128, 1, 25}, {128, 25, 50}, {128, 50, 100}, {256, 240, 240}, {256, 1600, 240}}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("f64/%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) { benchGemmShape[float64](b, s[0], s[1], s[2]) })
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("f32/%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) { benchGemmShape[float32](b, s[0], s[1], s[2]) })
	}
}

func benchGemmShape[T Float](b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a, w, wt := randMatT[T](rng, m, k), randMatT[T](rng, k, n), randMatT[T](rng, n, k)
	bias := randRow[T](rng, n)
	c, grad := NewMatrix[T](m, n), NewMatrix[T](m, n)
	flops := 2 * float64(m) * float64(k) * float64(n)
	run := func(name string, f func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	run("NN", func() { GemmOpt(Opts{}, nil, 1, a, w, 0, c) })
	run("NNTanhGrad", func() { GemmBiasTanhGradOpt(Opts{}, nil, a, w, bias, c, grad) })
	run("NT", func() { GemmNTOpt(Opts{}, nil, 1, a, wt, 0, c) })
}
