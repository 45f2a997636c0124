package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/tensor"
)

func testArena() *tensor.Arena[float64] { return tensor.NewArena[float64](1 << 16) }

// scalarOut runs a forward pass and sums all outputs, used as the scalar
// function for finite-difference checks.
func scalarOut(n *Net[float64], x tensor.Matrix[float64]) float64 {
	ar := testArena()
	tr := n.Forward(nil, tensor.Opts{}, ar, x, false)
	var s float64
	for _, v := range tr.Out().Data {
		s += v
	}
	return s
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	emb := NewEmbeddingNet[float64](rng, []int{8, 16, 32})
	if emb.InDim() != 1 || emb.OutDim() != 32 {
		t.Fatalf("embedding dims %d -> %d", emb.InDim(), emb.OutDim())
	}
	if emb.Layers[1].Kind != SkipDouble || emb.Layers[2].Kind != SkipDouble {
		t.Fatal("expected doubling skip layers")
	}
	fit := NewFittingNet[float64](rng, 24, []int{20, 20, 20}, 0)
	if fit.InDim() != 24 || fit.OutDim() != 1 {
		t.Fatalf("fitting dims %d -> %d", fit.InDim(), fit.OutDim())
	}
	if fit.Layers[1].Kind != SkipSame || fit.Layers[3].Kind != Linear {
		t.Fatal("fitting net topology wrong")
	}

	x := tensor.NewMatrix[float64](5, 1)
	tr := emb.Forward(nil, tensor.Opts{}, testArena(), x, true)
	if out := tr.Out(); out.Rows != 5 || out.Cols != 32 {
		t.Fatalf("embedding out %dx%d", out.Rows, out.Cols)
	}
}

// Fused and baseline graphs must produce identical outputs: this is the
// correctness half of the Sec. 5.3 fusion claims.
func TestForwardMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, build := range []func() *Net[float64]{
		func() *Net[float64] { return NewEmbeddingNet[float64](rng, []int{6, 12, 24}) },
		func() *Net[float64] { return NewFittingNet[float64](rng, 10, []int{14, 14}, 1.5) },
	} {
		n := build()
		x := tensor.NewMatrix[float64](7, n.InDim())
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		opt := n.Forward(nil, tensor.Opts{}, testArena(), x, true)
		base := n.ForwardBaseline(nil, x, true)
		for i := range opt.Out().Data {
			if d := math.Abs(opt.Out().Data[i] - base.Out().Data[i]); d > 1e-13 {
				t.Fatalf("fused/baseline mismatch %g at %d", d, i)
			}
		}
		for li := range n.Layers {
			if opt.Gs[li].Rows == 0 {
				continue
			}
			for i := range opt.Gs[li].Data {
				if d := math.Abs(opt.Gs[li].Data[i] - base.Gs[li].Data[i]); d > 1e-13 {
					t.Fatalf("layer %d tanh grad mismatch %g", li, d)
				}
			}
		}
	}
}

// The input gradient from Backward must match central finite differences.
// This validates the entire force path through the networks.
func TestBackwardInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nets := []*Net[float64]{
		NewEmbeddingNet[float64](rng, []int{4, 8, 16}),
		NewFittingNet[float64](rng, 6, []int{10, 10, 10}, 0.3),
	}
	for ni, n := range nets {
		rows := 3
		x := tensor.NewMatrix[float64](rows, n.InDim())
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * 0.5
		}
		ar := testArena()
		tr := n.Forward(nil, tensor.Opts{}, ar, x, true)
		dOut := tensor.NewMatrix[float64](rows, n.OutDim())
		for i := range dOut.Data {
			dOut.Data[i] = 1
		}
		dx := n.Backward(nil, tensor.Opts{}, ar, tr, dOut, nil)

		const h = 1e-6
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + h
			fp := scalarOut(n, x)
			x.Data[i] = orig - h
			fm := scalarOut(n, x)
			x.Data[i] = orig
			want := (fp - fm) / (2 * h)
			if d := math.Abs(dx.Data[i] - want); d > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("net %d: dX[%d] = %g, finite diff %g (err %g)", ni, i, dx.Data[i], want, d)
			}
		}
	}
}

// Parameter gradients must match finite differences (training path).
func TestBackwardParamGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewFittingNet[float64](rng, 5, []int{8, 8}, 0)
	rows := 4
	x := tensor.NewMatrix[float64](rows, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ar := testArena()
	tr := n.Forward(nil, tensor.Opts{}, ar, x, true)
	dOut := tensor.NewMatrix[float64](rows, 1)
	for i := range dOut.Data {
		dOut.Data[i] = 1
	}
	grads := NewGrads(n)
	n.Backward(nil, tensor.Opts{}, ar, tr, dOut, grads)

	const h = 1e-6
	for li, l := range n.Layers {
		// Check a sample of weight entries and all biases.
		idxs := []int{0, len(l.W.Data) / 2, len(l.W.Data) - 1}
		for _, i := range idxs {
			orig := l.W.Data[i]
			l.W.Data[i] = orig + h
			fp := scalarOut(n, x)
			l.W.Data[i] = orig - h
			fm := scalarOut(n, x)
			l.W.Data[i] = orig
			want := (fp - fm) / (2 * h)
			if d := math.Abs(grads.DW[li].Data[i] - want); d > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("layer %d dW[%d] = %g, want %g", li, i, grads.DW[li].Data[i], want)
			}
		}
		for i := range l.B {
			orig := l.B[i]
			l.B[i] = orig + h
			fp := scalarOut(n, x)
			l.B[i] = orig - h
			fm := scalarOut(n, x)
			l.B[i] = orig
			want := (fp - fm) / (2 * h)
			if d := math.Abs(grads.DB[li][i] - want); d > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("layer %d dB[%d] = %g, want %g", li, i, grads.DB[li][i], want)
			}
		}
	}
}

// Single and double precision networks must agree to float32 accuracy.
func TestMixedPrecisionConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n64 := NewEmbeddingNet[float64](rng, []int{8, 16, 32})
	n32 := ConvertNet[float32](n64)
	x64 := tensor.NewMatrix[float64](10, 1)
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	x32 := tensor.NewMatrix[float32](10, 1)
	for i, v := range x64.Data {
		x32.Data[i] = float32(v)
	}
	out64 := n64.Forward(nil, tensor.Opts{}, testArena(), x64, false).Out()
	out32 := n32.Forward(nil, tensor.Opts{}, tensor.NewArena[float32](1<<16), x32, false).Out()
	for i := range out64.Data {
		if d := math.Abs(out64.Data[i] - float64(out32.Data[i])); d > 5e-5 {
			t.Fatalf("precision divergence %g at %d", d, i)
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := NewFittingNet[float64](rng, 7, []int{9, 9}, 2.5)
	var buf bytes.Buffer
	if err := Save(&buf, n); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix[float64](3, 7)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	a := scalarOut(n, x)
	b := scalarOut(loaded, x)
	if a != b {
		t.Fatalf("roundtrip output changed: %g != %g", a, b)
	}
}

func TestLoadRejectsCorruptSpec(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Load(&buf); err == nil {
		t.Fatal("expected error on empty stream")
	}
}

func TestNumParamsAndFLOPs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewEmbeddingNet[float64](rng, []int{4, 8})
	// layers: 1->4 (W 4 + b 4), 4->8 (W 32 + b 8) = 48
	if got := n.NumParams(); got != 48 {
		t.Fatalf("NumParams = %d, want 48", got)
	}
	if f := n.ForwardFLOPs(10, true); f <= 0 {
		t.Fatalf("ForwardFLOPs = %d", f)
	}
	if f := n.BackwardFLOPs(10); f <= 0 {
		t.Fatalf("BackwardFLOPs = %d", f)
	}
	// Forward FLOPs with gradient must exceed without.
	if n.ForwardFLOPs(10, true) <= n.ForwardFLOPs(10, false) {
		t.Fatal("withGrad FLOPs should be larger")
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad skip shape")
		}
	}()
	n := &Net[float64]{Layers: []*Layer[float64]{
		{Kind: SkipDouble, W: tensor.NewMatrix[float64](4, 7), B: make([]float64, 7)},
	}}
	n.validate()
}

// ConvertNet to the net's own precision is a deep copy.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewEmbeddingNet[float64](rng, []int{4, 8})
	c := ConvertNet[float64](n)
	c.Layers[0].W.Data[0] += 100
	if n.Layers[0].W.Data[0] == c.Layers[0].W.Data[0] {
		t.Fatal("clone shares storage with original")
	}
}

// ForwardInto must reuse the caller's trace without heap allocation in
// steady state and produce outputs identical to a fresh Forward — the
// contract the evaluator's per-worker scratch depends on for the
// allocation-free MD step.
func TestForwardIntoReuseNoAllocIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewFittingNet[float64](rng, 12, []int{16, 16}, 0.5)
	x := tensor.NewMatrix[float64](6, 12)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ar := testArena()
	want := append([]float64(nil), n.Forward(nil, tensor.Opts{}, ar, x, true).Out().Data...)
	ar.Reset()

	var tr Trace[float64]
	n.ForwardInto(&tr, nil, tensor.Opts{}, ar, x, true) // warm the slices
	ar.Reset()
	allocs := testing.AllocsPerRun(20, func() {
		got := n.ForwardInto(&tr, nil, tensor.Opts{}, ar, x, true)
		ar.Reset()
		_ = got
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("ForwardInto allocated %.1f times per reused pass", allocs)
	}
	out := n.ForwardInto(&tr, nil, tensor.Opts{}, ar, x, true).Out()
	for i, v := range out.Data {
		if v != want[i] {
			t.Fatalf("reused trace output[%d] = %g, fresh Forward = %g", i, v, want[i])
		}
	}
	ar.Reset()
}

// Reusing a trace for a withGrad=false pass must clear the stale tanh
// gradients of a previous withGrad=true pass: Backward keys "trace has no
// gradients" off Gs[i].Rows == 0 and would otherwise consume stale data.
func TestForwardIntoClearsStaleGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewFittingNet[float64](rng, 8, []int{10, 10}, 0)
	x := tensor.NewMatrix[float64](3, 8)
	ar := testArena()
	var tr Trace[float64]
	n.ForwardInto(&tr, nil, tensor.Opts{}, ar, x, true)
	n.ForwardInto(&tr, nil, tensor.Opts{}, ar, x, false)
	for i, g := range tr.Gs {
		if g.Rows != 0 {
			t.Fatalf("layer %d kept a stale gradient matrix after withGrad=false reuse", i)
		}
	}
}
