// Package tensor is the minimal deep-learning runtime that stands in for
// TensorFlow in this reproduction. It provides row-major matrices over
// float32 or float64, the standard operators the baseline DeePMD-kit graph
// uses (MATMUL, SUM/bias-add, CONCAT, TANH, TANHGrad as separate passes),
// the fused operators of the optimized graph (GEMM with folded bias,
// skip-connected GEMM, fused TANH+TANHGrad), and an arena allocator that
// mirrors the paper's "allocate once, reuse every MD step" GPU memory
// strategy.
//
// Every kernel reports analytic FLOPs and wall time to an optional
// *perf.Counter under the operator categories of Fig. 3 of the paper.
package tensor

import "fmt"

// Float is the precision parameter: float64 for the double-precision model,
// float32 for the network part of the mixed-precision model.
type Float interface {
	~float32 | ~float64
}

// Matrix is a dense row-major matrix.
type Matrix[T Float] struct {
	Rows, Cols int
	Data       []T
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix[T Float](rows, cols int) Matrix[T] {
	return Matrix[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// MatrixFrom wraps an existing backing slice as a matrix. The slice must
// hold exactly rows*cols elements.
func MatrixFrom[T Float](rows, cols int, data []T) Matrix[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: backing slice has %d elements, want %d", len(data), rows*cols))
	}
	return Matrix[T]{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m Matrix[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Zero sets every element to zero.
func (m Matrix[T]) Zero() {
	clear(m.Data)
}

// Clone returns a deep copy of the matrix.
func (m Matrix[T]) Clone() Matrix[T] {
	out := NewMatrix[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Arena is a bump allocator over one contiguous slab. The optimized
// DeePMD-kit allocates a trunk of GPU memory at initialization and reuses
// it for every MD step (Sec. 5.2.2); Arena reproduces that: all per-step
// intermediates come from the slab and Reset makes the whole slab available
// again without freeing, so the steady-state MD loop performs no heap
// allocation.
type Arena[T Float] struct {
	slab    []T
	off     int
	peak    int
	maxPeak int
}

// NewArena returns an arena backed by a slab of n elements.
func NewArena[T Float](n int) *Arena[T] {
	return &Arena[T]{slab: make([]T, n)}
}

// Take returns a zeroed slice of n elements from the slab. If the slab is
// exhausted the arena falls back to the heap (and records the demand so
// Peak can be used to size the slab correctly next time); growArenas-style
// resizing makes that a warm-up-only event.
//
//dp:warmup
func (a *Arena[T]) Take(n int) []T {
	a.peak += n
	if a.off+n > len(a.slab) {
		return make([]T, n)
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}

// TakeUninit returns a slice of n elements from the slab without zeroing
// it: the fast path for buffers whose every element is written before
// being read (beta = 0 GEMM outputs, gather destinations). The clear in
// Take measures ~20% of a whole force evaluation at small network sizes,
// so the batched evaluator uses this wherever full overwrite is
// guaranteed. Slab reuse means the slice holds stale bytes from earlier
// steps — callers must not read before writing. The heap fallback on
// slab exhaustion is warm-up-only, as in Take.
//
//dp:warmup
func (a *Arena[T]) TakeUninit(n int) []T {
	a.peak += n
	if a.off+n > len(a.slab) {
		return make([]T, n)
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// TakeMatrix returns a rows x cols matrix backed by the slab.
func (a *Arena[T]) TakeMatrix(rows, cols int) Matrix[T] {
	return MatrixFrom(rows, cols, a.Take(rows*cols))
}

// TakeMatrixUninit is TakeUninit in matrix form.
func (a *Arena[T]) TakeMatrixUninit(rows, cols int) Matrix[T] {
	return MatrixFrom(rows, cols, a.TakeUninit(rows*cols))
}

// Reset makes the entire slab available again. Slices handed out earlier
// must not be used after Reset.
func (a *Arena[T]) Reset() {
	if a.peak > a.maxPeak {
		a.maxPeak = a.peak
	}
	a.off = 0
	a.peak = 0
}

// ArenaMark is a checkpoint of an arena's extent, see Arena.Mark.
type ArenaMark struct{ off, peak int }

// Mark checkpoints the arena's current extent. Rewind(mark) makes
// everything taken since available again — Reset for the tail of the slab
// — so a loop over row tiles reuses one tile's worth of scratch instead of
// holding every tile's, while the buffers taken before the mark stay
// valid.
func (a *Arena[T]) Mark() ArenaMark { return ArenaMark{a.off, a.peak} }

// Rewind releases everything taken since the mark. Slices handed out after
// it must not be used afterwards.
func (a *Arena[T]) Rewind(m ArenaMark) {
	if a.peak > a.maxPeak {
		a.maxPeak = a.peak
	}
	a.off, a.peak = m.off, m.peak
}

// Peak reports the number of elements currently held: everything requested
// since the last Reset and not rewound, including any heap overflow.
func (a *Arena[T]) Peak() int { return a.peak }

// MaxPeak reports the largest demand seen over the arena's lifetime,
// across Resets and Rewinds. Sizing the slab to it removes all
// steady-state allocation.
func (a *Arena[T]) MaxPeak() int { return max(a.maxPeak, a.peak) }

// Cap returns the slab capacity in elements.
func (a *Arena[T]) Cap() int { return len(a.slab) }

// Bytes returns the slab size in bytes. The mixed-precision model arena is
// roughly half the double-precision one (Sec. 7.1.3).
func (a *Arena[T]) Bytes() int {
	var z T
	return len(a.slab) * sizeofT(z)
}

// Resize returns s with length n, reusing capacity when possible; grown
// storage is freshly allocated (zeroed), reused storage keeps its prior
// bytes. The shared grow-or-reslice helper behind every persistent
// per-step buffer in the pipeline (evaluator results, environment
// matrices, formatter tables, network traces). Once a buffer has reached
// its high-water mark the reslice path is allocation-free.
//
//dp:warmup
func Resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Grow is Resize for buffers whose length follows a count that drifts from
// call to call, such as the real neighbor rows of an MD step: storage it
// allocates has n/16 elements of headroom, so a count that creeps upward
// reallocates rarely, and it never shrinks the capacity.
//
//dp:warmup
func Grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n, n+n/16)
	}
	return s[:n]
}

func sizeofT[T Float](T) int {
	var z T
	switch any(z).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}
