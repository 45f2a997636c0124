package tensor

import "deepmd-go/internal/perf"

// This file holds the *fused* operators of the optimized execution graph
// (Sec. 5.3):
//
//   - GemmBias replaces MATMUL + SUM with one pass (Sec. 5.3.1): the bias
//     row is written into C first and the GEMM accumulates on top of it
//     (the beta = 1 trick of the CUBLAS call C = alpha*A*B + beta*C).
//   - GemmBiasTanhGrad additionally fuses TANH and TANHGrad into the same
//     pass over the output (Sec. 5.3.3): y = tanh(x*W + b) and
//     dy/dpre = 1 - y^2 are produced together, trading the memory for the
//     gradient (allocated up front in the arena) for a second traversal.
//   - AddSkipDouble and AddSkipSame replace CONCAT + SUM (Sec. 5.3.2): the
//     concatenated (x, x) never materializes; the skip connection is an
//     in-place strided add into the activation output.
//
// The element-wise passes — the skip adds, SkipDoubleBackward, MulInto and
// the tanh after a product deeper than one K panel — run as one
// lane-kernel call over every row on an active SIMD family
// (laneSkipDouble and friends in simd_amd64.go), computing each element
// with the IEEE operation of the Go loop below it, in its order. The Go
// loops are the path where no family exists.

// GemmBiasOpt computes C = A*B + bias broadcast over rows, in one fused
// pass: the strips seed their accumulators with the bias row, the naive
// path writes it into C first and accumulates on top (the beta = 1 trick
// of the CUBLAS call).
func GemmBiasOpt[T Float](o Opts, ctr *perf.Counter, a, b Matrix[T], bias []T, c Matrix[T]) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols || len(bias) != c.Cols {
		panic("tensor: GemmBias dimension mismatch")
	}
	start := ctr.Now()
	m, k, n := a.Rows, a.Cols, b.Cols
	tier := perf.TierStrip
	if o.Kernel == Naive || !gemmSIMD(m, k, n, 1, a.Data, k, b.Data, n, 0, c.Data, n, bias, epiBias, nil, 0) {
		tier = perf.TierNaive
		gemmBiasNaive(a, b, bias, c)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(m)*int64(n)*int64(k)+int64(m)*int64(n))
}

// gemmBiasNaive is the reference fused bias GEMM: bias copied into each C
// row, then the naive i-k-j accumulation on top.
func gemmBiasNaive[T Float](a, b Matrix[T], bias []T, c Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : i*n+n]
		copy(ci, bias)
		ai := a.Data[i*k : i*k+k]
		for l, av := range ai {
			if av == 0 {
				continue
			}
			axpy(av, b.Data[l*n:l*n+n], ci)
		}
	}
}

// GemmBiasTanhGradOpt computes y = tanh(A*B + bias) and grad = 1 - y*y in
// one fused kernel. grad may be a zero-sized matrix (Rows == 0) to skip the
// gradient, in which case only the activation is produced.
func GemmBiasTanhGradOpt[T Float](o Opts, ctr *perf.Counter, a, b Matrix[T], bias []T, y, grad Matrix[T]) {
	wantGrad := grad.Rows > 0
	if wantGrad && (grad.Rows != y.Rows || grad.Cols != y.Cols) {
		panic("tensor: GemmBiasTanhGrad gradient dimension mismatch")
	}
	// Fully fused path: the SIMD kernels apply bias, tanh and the gradient
	// inside the store loop, so the whole operator is one pass over y (and
	// grad). The wall time lands on CatGEMM; the tanh FLOPs are recorded
	// under CatTANH with zero duration so per-category FLOP totals stay
	// comparable with the two-pass accounting.
	if o.Kernel != Naive && a.Cols == b.Rows && a.Rows == y.Rows && b.Cols == y.Cols && len(bias) == y.Cols {
		m, k, n := a.Rows, a.Cols, b.Cols
		mode := epiTanh
		var g []T
		ldg := 0
		if wantGrad {
			mode, g, ldg = epiTanhGrad, grad.Data, n
		}
		start := ctr.Now()
		if gemmSIMD(m, k, n, 1, a.Data, k, b.Data, n, 0, y.Data, n, bias, mode, g, ldg) {
			ctr.ObserveGEMM(perf.TierStrip, start, 2*int64(m)*int64(n)*int64(k)+int64(m)*int64(n))
			flops := tanhFLOPs * int64(len(y.Data))
			if wantGrad {
				flops += 2 * int64(len(y.Data))
			}
			ctr.Observe(perf.CatTANH, ctr.Now(), flops)
			return
		}
	}
	// Deeper than one K panel (the fitting net's 1600-deep first layer),
	// the strips accumulate over panels and the same epilogue runs after
	// the last one, as a lane pass; Kernel Naive and the generic family
	// keep the Go loop.
	GemmBiasOpt(o, ctr, a, b, bias, y)
	start := ctr.Now()
	var g []T
	if wantGrad {
		g = grad.Data
	}
	if o.Kernel == Naive || !laneTanh(y.Data, g) {
		for i, v := range y.Data {
			t := tanhT(v)
			y.Data[i] = t
			if wantGrad {
				grad.Data[i] = 1 - t*t
			}
		}
	}
	flops := tanhFLOPs * int64(len(y.Data))
	if wantGrad {
		flops += 2 * int64(len(y.Data))
	}
	ctr.Observe(perf.CatTANH, start, flops)
}

// AddSkipDouble adds the doubling skip connection y += (x, x) in place:
// y has twice the columns of x (Fig. 1(f) without the CONCAT operator).
func AddSkipDouble[T Float](ctr *perf.Counter, x, y Matrix[T]) {
	if y.Cols != 2*x.Cols || y.Rows != x.Rows {
		panic("tensor: AddSkipDouble dimension mismatch")
	}
	start := ctr.Now()
	n := x.Cols
	if !laneSkipDouble(y.Data, x.Data, x.Rows, n) {
		for i := 0; i < x.Rows; i++ {
			xi := x.Data[i*n : i*n+n]
			yi := y.Data[i*2*n : (i+1)*2*n]
			for j, v := range xi {
				yi[j] += v
				yi[j+n] += v
			}
		}
	}
	ctr.Observe(perf.CatOther, start, 2*int64(len(x.Data)))
}

// AddSkipSame adds the identity skip connection y += x in place
// (Fig. 1(g), used by the fitting net where layer sizes match).
func AddSkipSame[T Float](ctr *perf.Counter, x, y Matrix[T]) {
	if y.Cols != x.Cols || y.Rows != x.Rows {
		panic("tensor: AddSkipSame dimension mismatch")
	}
	start := ctr.Now()
	if !laneAdd(y.Data, x.Data) {
		for i, v := range x.Data {
			y.Data[i] += v
		}
	}
	ctr.Observe(perf.CatOther, start, int64(len(x.Data)))
}

// SkipDoubleBackward folds the gradient of the doubling skip connection:
// dx += dy[:, :n] + dy[:, n:].
func SkipDoubleBackward[T Float](ctr *perf.Counter, dy, dx Matrix[T]) {
	if dy.Cols != 2*dx.Cols || dy.Rows != dx.Rows {
		panic("tensor: SkipDoubleBackward dimension mismatch")
	}
	start := ctr.Now()
	n := dx.Cols
	if !laneSkipFold(dx.Data, dy.Data, dx.Rows, n) {
		for i := 0; i < dx.Rows; i++ {
			di := dy.Data[i*2*n : (i+1)*2*n]
			xi := dx.Data[i*n : i*n+n]
			for j := 0; j < n; j++ {
				xi[j] += di[j] + di[j+n]
			}
		}
	}
	ctr.Observe(perf.CatOther, start, 2*int64(len(dx.Data)))
}

// MulInto computes dst = a .* b element-wise (Hadamard), used to apply the
// stored tanh gradient during backward passes.
func MulInto[T Float](ctr *perf.Counter, a, b, dst Matrix[T]) {
	if len(a.Data) != len(b.Data) || len(a.Data) != len(dst.Data) {
		panic("tensor: MulInto dimension mismatch")
	}
	start := ctr.Now()
	if !laneMul(dst.Data, a.Data, b.Data) {
		for i, v := range a.Data {
			dst.Data[i] = v * b.Data[i]
		}
	}
	ctr.Observe(perf.CatOther, start, int64(len(a.Data)))
}
