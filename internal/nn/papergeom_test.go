package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// The fitting net at the paper's geometry, 1600-240-240-240-1: the first
// layer's reduction depth M*M_axis = 1600 is the one shape in the model
// that spans several K panels of the SIMD strip tier, and copper's 244-row
// chunk (30 strips + a 4-row tail strip) the one row count that ends in a
// tail strip. No small-width test reaches either.

// fitPass runs one forward + backward pass and returns copies of the
// energies and the input gradient.
func fitPass[T tensor.Float](n *Net[T], tr *Trace[T], o tensor.Opts, ar *tensor.Arena[T], x, ones tensor.Matrix[T]) (e, dx []T) {
	n.ForwardInto(tr, nil, o, ar, x, true)
	d := n.Backward(nil, o, ar, tr, ones, nil)
	e = append(e, tr.Out().Data...)
	dx = append(dx, d.Data...)
	ar.Reset()
	return e, dx
}

func maxAbs[T tensor.Float](v []T) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(float64(x)))
	}
	return m
}

func testFittingNetPaperGeometry[T tensor.Float](t *testing.T, rows int) {
	const inDim = 1600
	rng := rand.New(rand.NewSource(int64(rows)))
	n := ConvertNet[T](NewFittingNet[float64](rng, inDim, []int{240, 240, 240}, 0.5))
	x := tensor.NewMatrix[T](rows, inDim)
	for i := range x.Data {
		x.Data[i] = T(rng.NormFloat64())
	}
	ones := tensor.NewMatrix[T](rows, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	ar := tensor.NewArena[T](rows * (inDim + 16*240))
	var tr Trace[T]

	refE, refDX := fitPass(n, &tr, tensor.Opts{Kernel: tensor.Naive}, ar, x, ones)
	// The GEMM differential policy, 4*(k+4)*eps of the accumulated
	// magnitude per product, through four layers at the deepest k.
	var z T
	eps := 0x1p-52
	if _, ok := any(z).(float32); ok {
		eps = 0x1p-23
	}
	tol := 4 * 4 * (inDim + 4) * eps
	gotE, gotDX := fitPass(n, &tr, tensor.Opts{}, ar, x, ones)
	for _, c := range []struct {
		name     string
		got, ref []T
	}{{"energy", gotE, refE}, {"dX", gotDX, refDX}} {
		scale := math.Max(1, maxAbs(c.ref))
		for i := range c.ref {
			if d := math.Abs(float64(c.got[i]) - float64(c.ref[i])); !(d <= tol*scale) {
				t.Fatalf("%s[%d] = %g, naive %g (|diff| %g > %g)", c.name, i, float64(c.got[i]), float64(c.ref[i]), d, tol*scale)
			}
		}
	}
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(5, func() {
		n.ForwardInto(&tr, nil, tensor.Opts{}, ar, x, true)
		n.Backward(nil, tensor.Opts{}, ar, &tr, ones, nil)
		ar.Reset()
	})
	if allocs != 0 {
		t.Fatalf("serial forward+backward allocated %.1f times per pass after warm-up", allocs)
	}
}

func TestFittingNetPaperGeometry(t *testing.T) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range []cpufeat.Family{cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512} {
		if !cpufeat.Available(fam) {
			continue
		}
		if _, err := cpufeat.SetActive(fam); err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{244, 256} {
			t.Run(fmt.Sprintf("%s/rows=%d/float64", fam, rows), func(t *testing.T) { testFittingNetPaperGeometry[float64](t, rows) })
			t.Run(fmt.Sprintf("%s/rows=%d/float32", fam, rows), func(t *testing.T) { testFittingNetPaperGeometry[float32](t, rows) })
		}
	}
}
