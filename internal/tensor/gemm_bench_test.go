package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGemmShapes reports the GFLOP/s of the GEMM entry points at the
// shapes (M, K, N) one force call runs at the paper's geometry, with the
// fitting net at the default ChunkSize of 32 atoms. Forward: the embedding
// net's three layers on a 128-row tile (1→25, 25→50, 50→100) and the
// fitting net's 1600-deep first layer, 240-wide hidden layer and 240→1
// head, each as NN (GemmOpt, C = A·B) and NN with the fused tanh-grad
// epilogue (GemmBiasTanhGradOpt). Backward: dX = dY·Wᵀ for the embedding
// layers 100→50 and 50→25 and the fitting layers 240→1600 and 240→240,
// each as NT (GemmNTOpt on W as stored) beside NN on a pre-transposed W
// (GemmOpt on Wᵀ). Both precisions, on the active kernel family. The FLOP
// count is 2·M·K·N for every variant, so the numbers compare across
// variants and with the per-core FMA peak quoted in DESIGN.md ("SIMD
// microkernels").
//
//	go test -run xxx -bench BenchmarkGemmShapes ./internal/tensor/
func BenchmarkGemmShapes(b *testing.B) {
	forward := [][3]int{{128, 1, 25}, {128, 25, 50}, {128, 50, 100}, {32, 1600, 240}, {32, 240, 240}, {32, 240, 1}}
	backward := [][3]int{{128, 100, 50}, {128, 50, 25}, {32, 240, 1600}, {32, 240, 240}}
	for _, s := range forward {
		b.Run(fmt.Sprintf("f64/fwd/%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) { benchForwardShape[float64](b, s[0], s[1], s[2]) })
	}
	for _, s := range backward {
		b.Run(fmt.Sprintf("f64/bwd/%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) { benchBackwardShape[float64](b, s[0], s[1], s[2]) })
	}
	for _, s := range forward {
		b.Run(fmt.Sprintf("f32/fwd/%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) { benchForwardShape[float32](b, s[0], s[1], s[2]) })
	}
	for _, s := range backward {
		b.Run(fmt.Sprintf("f32/bwd/%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) { benchBackwardShape[float32](b, s[0], s[1], s[2]) })
	}
}

// benchShapeRun times f under name and reports its GFLOP/s at flops per
// call.
func benchShapeRun(b *testing.B, name string, flops float64, f func()) {
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

func benchForwardShape[T Float](b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a, w := randMatT[T](rng, m, k), randMatT[T](rng, k, n)
	bias := randRow[T](rng, n)
	c, grad := NewMatrix[T](m, n), NewMatrix[T](m, n)
	flops := 2 * float64(m) * float64(k) * float64(n)
	benchShapeRun(b, "NN", flops, func() { GemmOpt(Opts{}, nil, 1, a, w, 0, c) })
	benchShapeRun(b, "NNTanhGrad", flops, func() { GemmBiasTanhGradOpt(Opts{}, nil, a, w, bias, c, grad) })
}

// benchBackwardShape times dX (m x n) = dY (m x k) · Wᵀ, W the n x k
// weight of an n→k layer as the forward pass stores it.
func benchBackwardShape[T Float](b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	dy, w, wt := randMatT[T](rng, m, k), randMatT[T](rng, n, k), randMatT[T](rng, k, n)
	c := NewMatrix[T](m, n)
	flops := 2 * float64(m) * float64(k) * float64(n)
	benchShapeRun(b, "NT", flops, func() { GemmNTOpt(Opts{}, nil, 1, dy, w, 0, c) })
	benchShapeRun(b, "NNWt", flops, func() { GemmOpt(Opts{}, nil, 1, dy, wt, 0, c) })
}
