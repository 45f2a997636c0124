package tensor

import (
	"deepmd-go/internal/perf"
)

// The mixed-precision model (Sec. 5.2.3) builds the environment matrix in
// double precision, converts it to single precision for the network, and
// converts energies and forces back to double for accumulation. These
// kernels are that conversion boundary; they are charged to CatSLICE since
// they are pure bandwidth.

// F64to32 converts src into dst (same length).
func F64to32(ctr *perf.Counter, src []float64, dst []float32) {
	start := ctr.Now()
	for i, v := range src {
		dst[i] = float32(v)
	}
	ctr.Observe(perf.CatSLICE, start, 0)
}

// F32to64 converts src into dst (same length).
func F32to64(ctr *perf.Counter, src []float32, dst []float64) {
	start := ctr.Now()
	for i, v := range src {
		dst[i] = float64(v)
	}
	ctr.Observe(perf.CatSLICE, start, 0)
}

// ToF32 allocates a float32 copy of src.
func ToF32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// ToF64 allocates a float64 copy of src.
func ToF64(src []float32) []float64 {
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = float64(v)
	}
	return out
}
