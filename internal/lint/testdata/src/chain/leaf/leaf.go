// Package leaf is the bottom of the facts-propagation chain: one
// allocating and one clean exported function.
package leaf

// Alloc allocates on every call.
func Alloc(n int) []float64 { return make([]float64, n) }

// Sum is allocation-free.
func Sum(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t
}

// SumOf is Sum for either float type, called with explicit instantiation.
func SumOf[T float32 | float64](xs []T) T {
	var t T
	for _, v := range xs {
		t += v
	}
	return t
}

// AllocOf allocates on every call.
func AllocOf[T any](n int) []T { return make([]T, n) }

// Scale is allocation-free with two type parameters.
func Scale[T float32 | float64, I int | int64](x T, k I) T { return x * T(k) }
