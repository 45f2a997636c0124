// Package nn implements the two network families of the Deep Potential
// model (Fig. 1 of the paper): the embedding net (layers 25-50-100 with
// skip-connected doubling dense layers, Fig. 1(e)-(f)) and the fitting net
// (layers 240-240-240 with identity skip connections and a linear head,
// Fig. 1(g)).
//
// Networks are generic over float32/float64 so the same code serves the
// double-precision and mixed-precision models. Forward passes come in two
// flavours: the optimized graph (fused GEMM+bias+tanh+tanh-grad kernels,
// arena-backed buffers, no CONCAT) and the baseline graph (separate
// MATMUL/SUM/CONCAT/TANH/TANHGrad operators with per-op allocation),
// mirroring the before/after of Sec. 5.3. Backward passes produce input
// gradients (needed for forces every MD step) and, optionally, parameter
// gradients (needed only for training).
package nn

import (
	"fmt"

	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// LayerKind selects the connection topology of a dense layer.
type LayerKind int

const (
	// Plain is y = tanh(x*W + b).
	Plain LayerKind = iota
	// SkipDouble is y = (x, x) + tanh(x*W + b); W doubles the width
	// (embedding net layers 25->50 and 50->100).
	SkipDouble
	// SkipSame is y = x + tanh(x*W + b); W preserves the width (fitting
	// net hidden layers).
	SkipSame
	// Linear is y = x*W + b with no activation (fitting net head).
	Linear
)

// Layer is one dense layer with weights W (in x out) and bias b (out).
type Layer[T tensor.Float] struct {
	Kind LayerKind
	W    tensor.Matrix[T]
	B    []T
}

// In returns the layer input width.
func (l *Layer[T]) In() int { return l.W.Rows }

// Out returns the layer output width.
func (l *Layer[T]) Out() int { return l.W.Cols }

// Net is a feed-forward stack of dense layers.
type Net[T tensor.Float] struct {
	Layers []*Layer[T]
}

// InDim returns the input width of the network.
func (n *Net[T]) InDim() int { return n.Layers[0].In() }

// OutDim returns the output width of the network.
func (n *Net[T]) OutDim() int { return n.Layers[len(n.Layers)-1].Out() }

// NumParams returns the total number of scalar parameters.
func (n *Net[T]) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W.Data) + len(l.B)
	}
	return total
}

// check reports the first layer whose kind is undefined or whose widths
// are incompatible with its skip kind or with the previous layer's
// output.
func (n *Net[T]) check() error {
	for i, l := range n.Layers {
		switch l.Kind {
		case Plain, Linear:
		case SkipDouble:
			if l.Out() != 2*l.In() {
				return fmt.Errorf("nn: layer %d SkipDouble needs out = 2*in, got %d -> %d", i, l.In(), l.Out())
			}
		case SkipSame:
			if l.Out() != l.In() {
				return fmt.Errorf("nn: layer %d SkipSame needs out = in, got %d -> %d", i, l.In(), l.Out())
			}
		default:
			return fmt.Errorf("nn: layer %d has undefined kind %d", i, l.Kind)
		}
		if i > 0 && l.In() != n.Layers[i-1].Out() {
			return fmt.Errorf("nn: layer %d input %d != previous output %d", i, l.In(), n.Layers[i-1].Out())
		}
	}
	return nil
}

// validate panics on a net check rejects: nets built in code.
func (n *Net[T]) validate() {
	if err := n.check(); err != nil {
		panic(err.Error())
	}
}

// Trace captures the intermediates of one forward pass that the backward
// pass needs: the input, every layer's post-skip output, and every tanh
// layer's activation gradient (1 - tanh^2), produced by the fused kernel.
type Trace[T tensor.Float] struct {
	X  tensor.Matrix[T]
	Ys []tensor.Matrix[T]
	Gs []tensor.Matrix[T] // Gs[i].Rows == 0 for Linear layers
}

// Out returns the network output of the traced pass.
func (t *Trace[T]) Out() tensor.Matrix[T] { return t.Ys[len(t.Ys)-1] }

// Forward runs the optimized fused graph. Buffers are drawn from the arena;
// the trace is valid until the arena is reset. If withGrad is false the
// tanh gradients are not stored (sufficient when no backward pass will
// follow, e.g. energy-only evaluation). o selects the GEMM kernel family
// and intra-op worker count (tensor.Opts{} is the serial SIMD default).
func (n *Net[T]) Forward(ctr *perf.Counter, o tensor.Opts, ar *tensor.Arena[T], x tensor.Matrix[T], withGrad bool) *Trace[T] {
	return n.ForwardInto(new(Trace[T]), ctr, o, ar, x, withGrad)
}

// ForwardInto is Forward reusing a caller-owned trace: the Ys/Gs slices are
// resized in place (matrix data still comes from the arena), so a
// steady-state caller that keeps one trace per network performs no heap
// allocation per pass — the evaluator's per-worker scratch relies on this
// for the paper's allocate-once MD loop (Sec. 5.2.2). Returns tr.
func (n *Net[T]) ForwardInto(tr *Trace[T], ctr *perf.Counter, o tensor.Opts, ar *tensor.Arena[T], x tensor.Matrix[T], withGrad bool) *Trace[T] {
	rows := x.Rows
	tr.X = x
	tr.Ys = tensor.Resize(tr.Ys, len(n.Layers))
	tr.Gs = tensor.Resize(tr.Gs, len(n.Layers))
	cur := x
	for i, l := range n.Layers {
		// Every element of y (and g) is written by the fused kernel before
		// any read, so the un-zeroed arena take is safe and skips the
		// memclr that dominates small-network evaluations.
		y := ar.TakeMatrixUninit(rows, l.Out())
		switch l.Kind {
		case Linear:
			// Clear any gradient left by a previous reuse of the trace:
			// Backward keys "no activation" off Gs[i].Rows == 0.
			tr.Gs[i] = tensor.Matrix[T]{}
			tensor.GemmBiasOpt(o, ctr, cur, l.W, l.B, y)
		default:
			g := tensor.Matrix[T]{}
			if withGrad {
				g = ar.TakeMatrixUninit(rows, l.Out())
			}
			tensor.GemmBiasTanhGradOpt(o, ctr, cur, l.W, l.B, y, g)
			tr.Gs[i] = g
			switch l.Kind {
			case SkipDouble:
				tensor.AddSkipDouble(ctr, cur, y)
			case SkipSame:
				tensor.AddSkipSame(ctr, cur, y)
			}
		}
		tr.Ys[i] = y
		cur = y
	}
	return tr
}

// ForwardBaseline runs the baseline unfused graph: separate MATMUL, SUM,
// CONCAT, TANH and TANHGrad operators, each allocating its output, exactly
// as the 2018 DeePMD-kit executed the standard TensorFlow graph. The
// returned trace is interchangeable with Forward's.
func (n *Net[T]) ForwardBaseline(ctr *perf.Counter, x tensor.Matrix[T], withGrad bool) *Trace[T] {
	tr := &Trace[T]{
		X:  x,
		Ys: make([]tensor.Matrix[T], len(n.Layers)),
		Gs: make([]tensor.Matrix[T], len(n.Layers)),
	}
	cur := x
	for i, l := range n.Layers {
		pre := tensor.BiasAdd(ctr, tensor.MatMul(ctr, cur, l.W), l.B)
		var y tensor.Matrix[T]
		switch l.Kind {
		case Linear:
			y = pre
		default:
			t := tensor.Tanh(ctr, pre)
			if withGrad {
				tr.Gs[i] = tensor.TanhGrad(ctr, t)
			}
			switch l.Kind {
			case SkipDouble:
				y = tensor.Add(ctr, tensor.ConcatCols(ctr, cur), t)
			case SkipSame:
				y = tensor.Add(ctr, cur, t)
			default:
				y = t
			}
		}
		tr.Ys[i] = y
		cur = y
	}
	return tr
}

// Grads holds parameter gradients with the same shapes as the network.
type Grads[T tensor.Float] struct {
	DW []tensor.Matrix[T]
	DB [][]T
}

// NewGrads allocates zeroed gradients matching n.
func NewGrads[T tensor.Float](n *Net[T]) *Grads[T] {
	g := &Grads[T]{
		DW: make([]tensor.Matrix[T], len(n.Layers)),
		DB: make([][]T, len(n.Layers)),
	}
	for i, l := range n.Layers {
		g.DW[i] = tensor.NewMatrix[T](l.In(), l.Out())
		g.DB[i] = make([]T, l.Out())
	}
	return g
}

// Zero clears all gradients.
func (g *Grads[T]) Zero() {
	for i := range g.DW {
		g.DW[i].Zero()
		clear(g.DB[i])
	}
}

// Backward propagates dOut (gradient w.r.t. the network output) back to the
// input, returning dX. If grads is non-nil, parameter gradients are
// accumulated into it (training mode). The trace must have been produced
// with withGrad = true. Buffers are drawn from the arena. o selects the
// GEMM kernel family and intra-op worker count.
func (n *Net[T]) Backward(ctr *perf.Counter, o tensor.Opts, ar *tensor.Arena[T], tr *Trace[T], dOut tensor.Matrix[T], grads *Grads[T]) tensor.Matrix[T] {
	rows := dOut.Rows
	dy := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		// Gradient w.r.t. the pre-activation.
		var dpre tensor.Matrix[T]
		if l.Kind == Linear {
			dpre = dy
		} else {
			if tr.Gs[i].Rows == 0 {
				panic("nn: Backward requires a trace computed with withGrad = true")
			}
			dpre = ar.TakeMatrixUninit(rows, l.Out())
			tensor.MulInto(ctr, dy, tr.Gs[i], dpre)
		}
		if grads != nil {
			xi := tr.X
			if i > 0 {
				xi = tr.Ys[i-1]
			}
			tensor.GemmTNOpt(o, ctr, 1, xi, dpre, 1, grads.DW[i])
			accumulateBias(ctr, dpre, grads.DB[i])
		}
		// Gradient w.r.t. the layer input: GemmNT with beta = 0 writes every
		// element, so the un-zeroed take is safe.
		dx := ar.TakeMatrixUninit(rows, l.In())
		tensor.GemmNTOpt(o, ctr, 1, dpre, l.W, 0, dx)
		switch l.Kind {
		case SkipDouble:
			tensor.SkipDoubleBackward(ctr, dy, dx)
		case SkipSame:
			tensor.AddSkipSame(ctr, dy, dx)
		}
		dy = dx
	}
	return dy
}

// ArenaLen returns how many arena elements one traced pass over a batch of
// rows draws: ForwardInto with withGrad (every layer's output and
// activation gradient) plus Backward (every layer's pre-activation and
// input gradient). A caller sizing its arena at construction asks the net
// instead of re-deriving what the passes take.
func (n *Net[T]) ArenaLen(rows int) int {
	total := 0
	for _, l := range n.Layers {
		total += l.Out() + l.In()
		if l.Kind != Linear {
			total += 2 * l.Out()
		}
	}
	return rows * total
}

// accumulateBias adds the column sums of dpre into db.
func accumulateBias[T tensor.Float](ctr *perf.Counter, dpre tensor.Matrix[T], db []T) {
	n := dpre.Cols
	for i := 0; i < dpre.Rows; i++ {
		row := dpre.Data[i*n : i*n+n]
		for j, v := range row {
			db[j] += v
		}
	}
	ctr.AddFLOPs(int64(dpre.Rows) * int64(n))
}

// ForwardFLOPs returns the analytic FLOP count of one fused forward pass
// over a batch of the given number of rows (GEMM + bias + tanh kernels).
func (n *Net[T]) ForwardFLOPs(rows int, withGrad bool) int64 {
	var total int64
	for _, l := range n.Layers {
		m, k, c := int64(rows), int64(l.In()), int64(l.Out())
		total += 2*m*k*c + m*c // GEMM + bias
		if l.Kind != Linear {
			total += 10 * m * c // tanh
			if withGrad {
				total += 2 * m * c
			}
			if l.Kind == SkipDouble || l.Kind == SkipSame {
				total += m * c
			}
		}
	}
	return total
}

// BackwardFLOPs returns the analytic FLOP count of one backward pass over a
// batch of the given number of rows (input gradients only).
func (n *Net[T]) BackwardFLOPs(rows int) int64 {
	var total int64
	for _, l := range n.Layers {
		m, k, c := int64(rows), int64(l.In()), int64(l.Out())
		total += 2*m*k*c + m*c // GemmNT + tanh-grad application
	}
	return total
}
