package tensor

import (
	"deepmd-go/internal/perf"
)

// Kernel selects a GEMM implementation family.
type Kernel int

const (
	// SIMD is the optimized family and the default (the zero Opts value):
	// the runtime-dispatched SIMD kernels of simd.go for every call with
	// k >= 1 and n >= 1 on an active family, the naive loops below where no
	// family is active and for degenerate calls.
	SIMD Kernel = iota
	// Naive is the reference family: the original serial i-k-j and
	// dot-product loops. It survives as the differential-test oracle and
	// the 2018-baseline execution strategy.
	Naive
)

// Opts selects the kernel family for one GEMM call; the zero value is the
// SIMD family. Every call runs on the calling goroutine.
type Opts struct {
	Kernel Kernel
	// Workers has no effect. It stays because the benchmark probes
	// (bench/probes.go:178 and :201) set it to 1.
	Workers int
}

// GemmOpt computes C = alpha*A*B + beta*C for row-major matrices,
// A: m x k, B: k x n, C: m x n — the CPU stand-in for the single CUBLAS
// GEMM call the optimized DeePMD-kit uses (Sec. 5.3.1).
func GemmOpt[T Float](o Opts, ctr *perf.Counter, alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic("tensor: Gemm dimension mismatch")
	}
	start := ctr.Now()
	m, k, n := a.Rows, a.Cols, b.Cols
	tier := perf.TierStrip
	if o.Kernel == Naive || !gemmSIMD(m, k, n, alpha, a.Data, k, b.Data, n, beta, c.Data, n, nil, epiNone, nil, 0) {
		tier = perf.TierNaive
		gemmNaive(alpha, a, b, beta, c)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(m)*int64(n)*int64(k))
}

// GemmNTOpt computes C = alpha*A*B^T + beta*C, A: m x k, B: n x k,
// C: m x n. Used by the backward passes (dX = dY * W^T).
//
// A depth-1 product with beta = 0 — the backward of the fitting net's
// one-column head — is an outer product: B viewed as 1 x n is the same
// data, and every element is one rounded product times alpha on the
// strips as in the dot loop, so it runs there.
func GemmNTOpt[T Float](o Opts, ctr *perf.Counter, alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	if a.Cols != b.Cols || a.Rows != c.Rows || b.Rows != c.Cols {
		panic("tensor: GemmNT dimension mismatch")
	}
	start := ctr.Now()
	m, k, n := a.Rows, a.Cols, b.Rows
	tier := perf.TierDot
	switch {
	case o.Kernel != Naive && k == 1 && beta == 0 && gemmSIMD(m, 1, n, alpha, a.Data, 1, b.Data, n, 0, c.Data, n, nil, epiNone, nil, 0):
		tier = perf.TierStrip
	case o.Kernel == Naive || !gemmNTSIMD(m, k, n, alpha, a.Data, k, b.Data, k, beta, c.Data, n):
		tier = perf.TierNaive
		gemmNTNaive(alpha, a, b, beta, c)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(m)*int64(n)*int64(k))
}

// GemmTNOpt computes C = alpha*A^T*B + beta*C, A: m x k, B: m x n,
// C: k x n. Used by the training backward pass (dW = X^T * dY) and the
// descriptor contraction G^T * R~.
func GemmTNOpt[T Float](o Opts, ctr *perf.Counter, alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	if a.Rows != b.Rows || a.Cols != c.Rows || b.Cols != c.Cols {
		panic("tensor: GemmTN dimension mismatch")
	}
	start := ctr.Now()
	m, k, n := a.Rows, a.Cols, b.Cols
	tier := perf.TierStrip
	if o.Kernel == Naive || !gemmTNSIMD(m, k, n, alpha, a.Data, b.Data, beta, c.Data) {
		tier = perf.TierNaive
		gemmTNNaive(alpha, a, b, beta, c)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(m)*int64(n)*int64(k))
}

// gemmNaive is the reference C = alpha*A*B + beta*C: an i-k-j loop order so
// the innermost loop streams contiguous rows of B and C.
func gemmNaive[T Float](alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : i*n+n]
		switch beta {
		case 0:
			clear(ci)
		case 1:
			// keep
		default:
			for j := range ci {
				ci[j] *= beta
			}
		}
		ai := a.Data[i*k : i*k+k]
		for l, av := range ai {
			s := alpha * av
			if s == 0 {
				continue
			}
			bl := b.Data[l*n : l*n+n]
			axpy(s, bl, ci)
		}
	}
}

// gemmNTNaive is the reference C = alpha*A*B^T + beta*C: the inner loop is
// a dot product over two contiguous rows.
func gemmNTNaive[T Float](alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Rows
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : i*k+k]
		ci := c.Data[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : j*k+k]
			s := dot(ai, bj)
			if beta == 0 {
				ci[j] = alpha * s
			} else {
				ci[j] = alpha*s + beta*ci[j]
			}
		}
	}
}

// gemmTNNaive is the reference C = alpha*A^T*B + beta*C.
func gemmTNNaive[T Float](alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if beta == 0 {
		clear(c.Data)
	} else if beta != 1 {
		for j := range c.Data {
			c.Data[j] *= beta
		}
	}
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : i*k+k]
		bi := b.Data[i*n : i*n+n]
		for l, av := range ai {
			s := alpha * av
			if s == 0 {
				continue
			}
			cl := c.Data[l*n : l*n+n]
			axpy(s, bi, cl)
		}
	}
}

// axpy computes dst += s*src element-wise.
func axpy[T Float](s T, src, dst []T) {
	n := len(dst)
	src = src[:n]
	// Unroll by 4 to help the compiler keep the accumulators in registers.
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += s * src[i]
		dst[i+1] += s * src[i+1]
		dst[i+2] += s * src[i+2]
		dst[i+3] += s * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += s * src[i]
	}
}

// dot returns the inner product of a and b (len(a) elements).
func dot[T Float](a, b []T) T {
	var s0, s1, s2, s3 T
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}
