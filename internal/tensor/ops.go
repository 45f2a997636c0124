package tensor

import (
	"deepmd-go/internal/perf"
)

// This file holds the *standard* TensorFlow-style operators used by the
// baseline execution graph (Sec. 5.3): MATMUL, SUM (bias broadcast and
// element-wise add), CONCAT and TANH/TANHGrad as separate passes, each with
// its own output allocation — exactly the overhead pattern the optimized
// graph removes.

// MatMul allocates and returns A*B (the standard MATMUL operator).
func MatMul[T Float](ctr *perf.Counter, a, b Matrix[T]) Matrix[T] {
	c := NewMatrix[T](a.Rows, b.Cols)
	GemmOpt(Opts{}, ctr, 1, a, b, 0, c)
	return c
}

// BiasAdd allocates and returns x + b broadcast over rows (the standard SUM
// operator applied to a bias vector). b must have x.Cols elements.
func BiasAdd[T Float](ctr *perf.Counter, x Matrix[T], b []T) Matrix[T] {
	if len(b) != x.Cols {
		panic("tensor: BiasAdd dimension mismatch")
	}
	start := ctr.Now()
	out := NewMatrix[T](x.Rows, x.Cols)
	n := x.Cols
	for i := 0; i < x.Rows; i++ {
		xi := x.Data[i*n : i*n+n]
		oi := out.Data[i*n : i*n+n]
		for j, v := range xi {
			oi[j] = v + b[j]
		}
	}
	ctr.Observe(perf.CatOther, start, int64(x.Rows)*int64(x.Cols))
	return out
}

// Add allocates and returns x + y element-wise (the standard SUM operator).
func Add[T Float](ctr *perf.Counter, x, y Matrix[T]) Matrix[T] {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		panic("tensor: Add dimension mismatch")
	}
	start := ctr.Now()
	out := NewMatrix[T](x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = v + y.Data[i]
	}
	ctr.Observe(perf.CatOther, start, int64(len(x.Data)))
	return out
}

// ConcatCols allocates and returns (x, x): each row duplicated side by side
// (the CONCAT operator feeding the doubling skip connection, Fig. 1(f)).
func ConcatCols[T Float](ctr *perf.Counter, x Matrix[T]) Matrix[T] {
	start := ctr.Now()
	n := x.Cols
	out := NewMatrix[T](x.Rows, 2*n)
	for i := 0; i < x.Rows; i++ {
		xi := x.Data[i*n : i*n+n]
		oi := out.Data[i*2*n : (i+1)*2*n]
		copy(oi[:n], xi)
		copy(oi[n:], xi)
	}
	ctr.Observe(perf.CatSLICE, start, 0)
	return out
}

// Tanh allocates and returns elementwise tanh(x) (the standard TANH
// operator).
func Tanh[T Float](ctr *perf.Counter, x Matrix[T]) Matrix[T] {
	start := ctr.Now()
	out := NewMatrix[T](x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = tanhT(v)
	}
	ctr.Observe(perf.CatTANH, start, tanhFLOPs*int64(len(x.Data)))
	return out
}

// TanhGrad allocates and returns 1 - y*y where y = tanh(x) was already
// computed (the standard TANHGrad operator run as a second pass over y).
func TanhGrad[T Float](ctr *perf.Counter, y Matrix[T]) Matrix[T] {
	start := ctr.Now()
	out := NewMatrix[T](y.Rows, y.Cols)
	for i, v := range y.Data {
		out.Data[i] = 1 - v*v
	}
	ctr.Observe(perf.CatTANH, start, 2*int64(len(y.Data)))
	return out
}
