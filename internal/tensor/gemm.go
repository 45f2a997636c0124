package tensor

import (
	"deepmd-go/internal/perf"
)

// Kernel selects a GEMM implementation family.
type Kernel int

const (
	// SIMD is the optimized family and the default (the zero Opts value):
	// the runtime-dispatched SIMD kernels of simd.go wherever one covers
	// the layer's (k, n, epilogue), the naive loops below everywhere else.
	SIMD Kernel = iota
	// Naive is the reference family: the original serial i-k-j and
	// dot-product loops. It survives as the differential-test oracle and
	// the 2018-baseline execution strategy.
	Naive
)

// Opts selects the kernel family and intra-op parallelism for one GEMM
// call; the zero value is the SIMD family, serial. Workers partitions C
// row strips across goroutines; results are bit-identical for every worker
// count.
type Opts struct {
	Kernel  Kernel
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
	if o.Kernel == Naive || !gemmSIMD(o.Workers, m, k, n, alpha, a.Data, k, b.Data, n, beta, c.Data, n, nil, epiNone, nil, 0) {
		tier = perf.TierNaive
		gemmNaive(alpha, a, b, beta, c)
	}
	ctr.ObserveGEMM(tier, start, 2*int64(m)*int64(n)*int64(k))
}

// GemmNTOpt computes C = alpha*A*B^T + beta*C, A: m x k, B: n x k,
// C: m x n. Used by the backward passes (dX = dY * W^T).
func GemmNTOpt[T Float](o Opts, ctr *perf.Counter, alpha T, a, b Matrix[T], beta T, c Matrix[T]) {
	if a.Cols != b.Cols || a.Rows != c.Rows || b.Rows != c.Cols {
		panic("tensor: GemmNT dimension mismatch")
	}
	start := ctr.Now()
	m, k, n := a.Rows, a.Cols, b.Rows
	tier := perf.TierDot
	if o.Kernel == Naive || !gemmNTSIMD(o.Workers, m, k, n, alpha, a.Data, k, b.Data, k, beta, c.Data, n) {
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
	if o.Kernel == Naive || !gemmTNSIMD(o.Workers, m, k, n, alpha, a.Data, b.Data, beta, c.Data) {
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

// Axpy computes y += s*x and records it as CatOther.
func Axpy[T Float](ctr *perf.Counter, s T, x, y []T) {
	start := ctr.Now()
	axpy(s, x, y)
	ctr.Observe(perf.CatOther, start, 2*int64(len(y)))
}

// Dot returns the inner product of a and b and records it as CatOther.
func Dot[T Float](ctr *perf.Counter, a, b []T) T {
	start := ctr.Now()
	s := dot(a, b)
	ctr.Observe(perf.CatOther, start, 2*int64(len(a)))
	return s
}
