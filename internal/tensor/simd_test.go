package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// Tests for the SIMD microkernel engine. Three layers of checking:
//
//  1. TestTileArgsLayout pins the tileArgs field offsets the .s files
//     hard-code (TA_* defines).
//  2. The per-family differential sweep forces every family the host can
//     execute (Generic included) through the public GEMM dispatch and
//     holds it to the differential tolerance policy plus worker-count
//     bit-identity.
//  3. The lane-vs-model tests exploit the strip layout: with every A row
//     identical, every output row must be bit-identical to every other —
//     strip rows against the zero-padded tail strip in both precisions
//     (all lanes), and in float64 across the scalar-model column tail too,
//     the strongest statement of the "scalar model reproduces the asm"
//     contract — at one K panel and at the paper's 1600-deep reduction,
//     including NaN and Inf propagation through the fused tanh epilogue
//     and through the panel accumulation.

func TestTileArgsLayout(t *testing.T) {
	var ta tileArgs
	offsets := []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"a", unsafe.Offsetof(ta.a), 0},
		{"b", unsafe.Offsetof(ta.b), 8},
		{"c", unsafe.Offsetof(ta.c), 16},
		{"bias", unsafe.Offsetof(ta.bias), 24},
		{"grad", unsafe.Offsetof(ta.grad), 32},
		{"lda", unsafe.Offsetof(ta.lda), 40},
		{"ldb", unsafe.Offsetof(ta.ldb), 48},
		{"ldc", unsafe.Offsetof(ta.ldc), 56},
		{"ldg", unsafe.Offsetof(ta.ldg), 64},
		{"k", unsafe.Offsetof(ta.k), 72},
		{"n", unsafe.Offsetof(ta.n), 80},
		{"alpha", unsafe.Offsetof(ta.alpha), 88},
		{"beta", unsafe.Offsetof(ta.beta), 96},
		{"mode", unsafe.Offsetof(ta.mode), 104},
	}
	for _, o := range offsets {
		if o.got != o.want {
			t.Errorf("tileArgs.%s at offset %d, asm expects %d", o.name, o.got, o.want)
		}
	}
	if s := unsafe.Sizeof(ta); s != 112 {
		t.Errorf("tileArgs size %d, want 112", s)
	}
}

// simdRowRange takes the uncovered columns of an unmasked family to be the
// last n mod cover of the matrix, which holds only while every column
// chunk boundary is a multiple of the cover.
func TestColumnChunkIsMultipleOfCover(t *testing.T) {
	for _, fam := range simdTestFamilies() {
		for _, es := range []int{4, 8} {
			if caps, ok := simdCaps(fam, es); ok && simdNC%caps.cover != 0 {
				t.Errorf("%s es=%d: simdNC %d is not a multiple of cover %d", fam, es, simdNC, caps.cover)
			}
		}
	}
}

// simdTestFamilies returns every kernel family this host/build can
// execute, Generic always included.
func simdTestFamilies() []cpufeat.Family {
	fams := []cpufeat.Family{cpufeat.Generic}
	for _, f := range []cpufeat.Family{cpufeat.AVX2, cpufeat.AVX512} {
		if cpufeat.Available(f) {
			fams = append(fams, f)
		}
	}
	return fams
}

// sweepFamilies runs fn once per executable family with that family
// forced active, restoring the original selection afterwards. Callers
// must not use t.Parallel: the active family is process-global.
func sweepFamilies(t *testing.T, fn func(t *testing.T, fam cpufeat.Family)) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range simdTestFamilies() {
		fam := fam
		t.Run("family="+fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			fn(t, fam)
		})
	}
}

// TestGemmDifferentialPerFamily is the differential suite of
// differential_test.go focused on the SIMD-eligible regime (tall-skinny
// embedding shapes, K in {1, 25, 50}, the 240-wide fitting shape,
// unaligned M/N remainders below every tile width, reductions of two to
// seven K panels up to the paper's 244 x 1600 x 240 first fitting layer,
// and the TN variant's staged route), forced through every kernel family.
// Each cell also sweeps worker counts 1/2/7 with the bit-identity contract.
func TestGemmDifferentialPerFamily(t *testing.T) {
	shapes := [][3]int{
		{5, 1, 9}, {8, 3, 8}, {9, 25, 26}, {12, 50, 33},
		{17, 50, 24}, {23, 25, 100}, {64, 1, 25}, {100, 25, 50},
		{64, 50, 100}, {40, 240, 240},
		{8, 257, 16}, {9, 512, 17}, {13, 513, 31},
		// The embedding net's backward shapes dX = dpre·Wᵀ on a row tile:
		// the NT dot tile's column tails (n mod 4 of 1, 2, 1 and 2) and the
		// one-column layer below its width.
		{128, 25, 1}, {96, 50, 1}, {64, 100, 2}, {129, 50, 25}, {66, 25, 50}, {128, 100, 50},
		// The staged-transpose TN route. In GemmTNOpt's own (m, k, n) —
		// A m x k, C k x n, depth m — these are {300, 1, 25}, a C with one
		// row (a lone tail strip; for the other variants a one-row call
		// over two K panels), {64, 50, 1}, n below every cover, and
		// {600, 240, 240}, a reduction past two K panels; the list's (m, k,
		// n) is output m x n at depth k, so they read transposed here.
		{1, 300, 25}, {50, 64, 1}, {240, 600, 240},
		{244, 1600, 240},
	}
	if raceEnabled {
		// Same panels, same tail strips, still above the goroutine fan-out
		// threshold — a tenth of the reference work.
		shapes[len(shapes)-2] = [3]int{24, 600, 240}
		shapes[len(shapes)-1] = [3]int{20, 1600, 240}
	}
	alphaBeta := [][2]float64{{1, 0}, {2.5, -0.5}, {1, 1}}
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		for variant := 0; variant < numVariants; variant++ {
			for si, shape := range shapes {
				m, k, n := shape[0], shape[1], shape[2]
				if variant >= variantGemmBias {
					runGemmVariantCase[float64](t, variant, m, k, n, 1, 1, int64(9000+si))
					runGemmVariantCase[float32](t, variant, m, k, n, 1, 1, int64(9000+si))
					continue
				}
				for ai, ab := range alphaBeta {
					runGemmVariantCase[float64](t, variant, m, k, n, ab[0], ab[1], int64(9100+10*si+ai))
					runGemmVariantCase[float32](t, variant, m, k, n, ab[0], ab[1], int64(9100+10*si+ai))
				}
			}
		}
	})
}

// repeatedRows builds an m-row matrix whose rows are all the given row, so
// every output row of a GEMM on it computes the same mathematical quantity
// and rows served by different code (strip, tail strip, scalar model) can
// be compared bitwise.
func repeatedRows[T Float](row []T, m int) Matrix[T] {
	a := NewMatrix[T](m, len(row))
	for i := 0; i < m; i++ {
		copy(a.Data[i*len(row):(i+1)*len(row)], row)
	}
	return a
}

func randRow[T Float](rng *rand.Rand, n int) []T {
	row := make([]T, n)
	for i := range row {
		row[i] = T(rng.NormFloat64())
	}
	return row
}

// checkRowsBitEqual compares columns [0, cols) of every row against the
// last row.
func checkRowsBitEqual[T Float](t *testing.T, label string, c Matrix[T], cols int) {
	t.Helper()
	n := c.Cols
	last := c.Rows - 1
	want := c.Data[last*n : last*n+cols]
	for i := 0; i < last; i++ {
		got := c.Data[i*n : i*n+cols]
		for j := range got {
			if got[j] != got[j] && want[j] != want[j] {
				// NaN payloads are not part of the contract: hardware FMA
				// propagates the payload of a different operand slot than
				// math.FMA in the gradient's 1 - y*y.
				continue
			}
			if math.Float64bits(float64(got[j])) != math.Float64bits(float64(want[j])) {
				t.Fatalf("%s: row %d col %d: %g != last row's %g (diff %g)",
					label, i, j, float64(got[j]), float64(want[j]), float64(got[j])-float64(want[j]))
			}
		}
	}
}

// testLaneVsTailRow runs every epilogue on a (2R+1)-row problem with
// identical A rows: two asm strips plus a one-row tail strip, two asm
// column chunks plus a column tail below the chunk width. Columns the
// lanes cover must be bit-identical down all rows in both precisions;
// float64 extends that to the scalar-model column tail.
func testLaneVsTailRow[T Float](t *testing.T, fam cpufeat.Family) {
	var z T
	es := sizeofT(z)
	caps, ok := simdCaps(fam, es)
	if !ok {
		t.Skip("no kernel of this precision in this family")
	}
	m := 2*caps.rows + 1
	n := 2*caps.cover + 3
	cols := n
	if es == 4 && !caps.masked {
		cols = n &^ (caps.cover - 1)
	}
	rng := rand.New(rand.NewSource(77))
	for _, k := range []int{1, 25, 50, 240, simdMaxK + 1, 1600} {
		a := repeatedRows(randRow[T](rng, k), m)
		b := randMatT[T](rng, k, n)
		bias := randRow[T](rng, n)
		label := fmt.Sprintf("%s %T k=%d", fam, z, k)

		c := repeatedRows(randRow[T](rng, n), m)
		GemmOpt(Opts{}, nil, 2.5, a, b, -0.5, c)
		checkRowsBitEqual(t, label+" epiNone", c, cols)

		c = NewMatrix[T](m, n)
		GemmBiasOpt(Opts{}, nil, a, b, bias, c)
		checkRowsBitEqual(t, label+" epiBias", c, cols)

		// Beyond one panel this is the panelled GemmBias plus the separate
		// tanh pass, which is elementwise and keeps equal rows equal.
		y := NewMatrix[T](m, n)
		grad := NewMatrix[T](m, n)
		GemmBiasTanhGradOpt(Opts{}, nil, a, b, bias, y, grad)
		checkRowsBitEqual(t, label+" epiTanh y", y, cols)
		checkRowsBitEqual(t, label+" epiTanhGrad", grad, cols)
	}
}

// TestSIMDLaneVsScalarModel checks the bit-exactness contract directly, at
// one K panel and beyond (k = 1600 is the paper's first fitting layer).
func TestSIMDLaneVsScalarModel(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if fam == cpufeat.Generic {
			t.Skip("no lanes in the generic family")
		}
		t.Run("float64", func(t *testing.T) { testLaneVsTailRow[float64](t, fam) })
		t.Run("float32", func(t *testing.T) { testLaneVsTailRow[float32](t, fam) })
	})
}

// TestSIMDNaNInfPropagation drives non-finite values through the fused
// tanh epilogue: a NaN pre-activation must stay NaN (same bits between
// lane and model), +/-Inf must saturate to +/-1 with gradient 0, and both
// must not contaminate neighboring lanes.
func TestSIMDNaNInfPropagation(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if fam == cpufeat.Generic {
			t.Skip("no lanes in the generic family")
		}
		caps, ok := simdCaps(fam, 8)
		if !ok {
			t.Skip("no float64 kernel in this family")
		}
		R := caps.rows
		m := R + 1
		k := 25
		n := caps.cover + 3
		rng := rand.New(rand.NewSource(99))
		a := repeatedRows(randRow[float64](rng, k), m)
		b := randMatT[float64](rng, k, n)
		bias := randRow[float64](rng, n)
		// Column 0: NaN via a NaN bias. Column 1: +Inf bias. Column 2: -Inf
		// bias. Column 3: huge positive pre-activation (saturated tanh).
		bias[0] = math.NaN()
		bias[1] = math.Inf(1)
		bias[2] = math.Inf(-1)
		bias[3] = 1e300

		y := NewMatrix[float64](m, n)
		grad := NewMatrix[float64](m, n)
		GemmBiasTanhGradOpt(Opts{}, nil, a, b, bias, y, grad)
		checkRowsBitEqual(t, fam.String()+" nonfinite y", y, n)
		checkRowsBitEqual(t, fam.String()+" nonfinite grad", grad, n)
		for i := 0; i < m; i++ {
			if !math.IsNaN(y.At(i, 0)) {
				t.Errorf("row %d: tanh(NaN) = %g, want NaN", i, y.At(i, 0))
			}
			if y.At(i, 1) != 1 || y.At(i, 2) != -1 || y.At(i, 3) != 1 {
				t.Errorf("row %d: saturated tanh = %g, %g, %g, want 1, -1, 1",
					i, y.At(i, 1), y.At(i, 2), y.At(i, 3))
			}
			if g := grad.At(i, 1); g != 0 {
				t.Errorf("row %d: grad at tanh=1 is %g, want 0", i, g)
			}
		}
	})
}

// TestSIMDNaNInfAcrossPanels places a NaN, a +Inf and a -Inf in K panel 0
// of single A rows — one in the first strip, one in the zero-padded tail
// strip — of a five-panel GemmBias. Each must survive the four beta = 1
// accumulation passes that follow, reach every column of its own row, and
// leave every other row (its strip neighbours included) bit-identical to
// the same product without it. The padded tail rows multiply the
// non-finite-free B by zeros and are dropped; the output has no room for
// them to land in, which the clean-row comparison covers.
func TestSIMDNaNInfAcrossPanels(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if fam == cpufeat.Generic {
			t.Skip("no lanes in the generic family")
		}
		t.Run("float64", func(t *testing.T) { testNonFiniteAcrossPanels[float64](t, fam) })
		t.Run("float32", func(t *testing.T) { testNonFiniteAcrossPanels[float32](t, fam) })
	})
}

func testNonFiniteAcrossPanels[T Float](t *testing.T, fam cpufeat.Family) {
	var z T
	caps, ok := simdCaps(fam, sizeofT(z))
	if !ok {
		t.Skip("no kernel of this precision in this family")
	}
	R := caps.rows
	m := 2*R + 3 // two strips and a three-row tail strip
	k := 4*simdMaxK + 7
	n := caps.cover + 3
	rng := rand.New(rand.NewSource(101))
	a := randMatT[T](rng, m, k)
	b := randMatT[T](rng, k, n)
	for j := 0; j < n; j++ {
		// Strictly positive B row 5, so +/-Inf in A[., 5] cannot meet an
		// Inf of the other sign and the expected outcome is unambiguous.
		b.Data[5*n+j] = T(math.Abs(float64(b.Data[5*n+j])) + 0.5)
	}
	bias := randRow[T](rng, n)
	clean := NewMatrix[T](m, n)
	GemmBiasOpt(Opts{}, nil, a, b, bias, clean)

	nanRow, posRow, negRow := 1, R+2, m-2 // strip 0, strip 1, tail strip
	a.Data[nanRow*k+5] = T(math.NaN())
	a.Data[posRow*k+5] = T(math.Inf(1))
	a.Data[negRow*k+5] = T(math.Inf(-1))
	got := NewMatrix[T](m, n)
	GemmBiasOpt(Opts{}, nil, a, b, bias, got)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := float64(got.At(i, j))
			switch i {
			case nanRow:
				if !math.IsNaN(v) {
					t.Fatalf("%s %T: NaN row %d col %d = %g, want NaN", fam, z, i, j, v)
				}
			case posRow:
				if !math.IsInf(v, 1) {
					t.Fatalf("%s %T: +Inf row %d col %d = %g, want +Inf", fam, z, i, j, v)
				}
			case negRow:
				if !math.IsInf(v, -1) {
					t.Fatalf("%s %T: -Inf row %d col %d = %g, want -Inf", fam, z, i, j, v)
				}
			default:
				if got.At(i, j) != clean.At(i, j) {
					t.Fatalf("%s %T: clean row %d col %d = %g, was %g without the non-finite rows",
						fam, z, i, j, v, float64(clean.At(i, j)))
				}
			}
		}
	}
}

// TestSIMDNTLaneVsScalarModel is the same bitwise lane-vs-model check for
// the NT dot tile, driven through ntRowRange directly so small shapes
// (odd rows, column tails, k tails below the vector width) hit the asm:
// the tail columns a row pair computes on the zero-padded mini-panel must
// carry the bits the scalar model gives the odd row.
func TestSIMDNTLaneVsScalarModel(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if fam == cpufeat.Generic {
			t.Skip("no lanes in the generic family")
		}
		caps, ok := simdCaps(fam, 8)
		if !ok || !caps.hasNT {
			t.Skip("no NT tile in this family")
		}
		rng := rand.New(rand.NewSource(123))
		for _, k := range []int{8, 25, 50, 51, 100} {
			// One asm row pair + the scalar odd row; n = 7 is 4 covered
			// columns + 3 on the staged mini-panel, the rest are the
			// embedding net's backward widths (tails of 1, 2, 1 and 2).
			for _, n := range []int{7, 1, 2, 25, 50} {
				const m = 3
				a := repeatedRows(randRow[float64](rng, k), m)
				b := randMatT[float64](rng, n, k)
				c := repeatedRows(randRow[float64](rng, n), m)
				ntRowRange(fam, 0, m, k, n, 1.5, a.Data, k, b.Data, k, -0.5, c.Data, n)
				checkRowsBitEqual(t, fmt.Sprintf("%s NT k=%d n=%d", fam, k, n), c, n)
			}
		}
	})
}

// ulp64 returns the distance |a-b| in units of b's last place.
func ulp64(a, b float64) float64 {
	if a == b {
		return 0
	}
	exp := math.Ilogb(b)
	return math.Abs(a-b) / math.Ldexp(1, exp-52)
}

// TestTanhApprox64ULP asserts the documented accuracy bound of the vector
// tanh polynomial: strictly less than 4 ulp from math.Tanh everywhere
// (measured max on dense sweeps is ~2 ulp), with exact saturation at
// |x| >= 20, exact zero at zero, and NaN/Inf handled like math.Tanh.
func TestTanhApprox64ULP(t *testing.T) {
	const bound = 4.0
	maxUlp := 0.0
	worst := 0.0
	check := func(x float64) {
		got := tanhApprox64(x)
		want := math.Tanh(x)
		if u := ulp64(got, want); u > maxUlp {
			maxUlp, worst = u, x
		}
	}
	// Dense uniform sweep across the active range and a log sweep into the
	// subnormal regime, both signs.
	const N = 400000
	for i := 0; i <= N; i++ {
		check(-22 + 44*float64(i)/N)
	}
	for i := 0; i <= N; i++ {
		x := math.Ldexp(1+float64(i%97)/97, -8-i*1050/N)
		check(x)
		check(-x)
	}
	if maxUlp >= bound {
		t.Errorf("tanhApprox64 max error %.3f ulp at x=%g, documented bound is < %g ulp", maxUlp, worst, bound)
	}
	t.Logf("tanhApprox64 max error %.3f ulp (at x=%g)", maxUlp, worst)

	for _, x := range []float64{20, -20, 25, -25, 700, -700, math.Inf(1), math.Inf(-1), 1e308} {
		want := 1.0
		if x < 0 {
			want = -1
		}
		if got := tanhApprox64(x); got != want {
			t.Errorf("tanhApprox64(%g) = %g, want exactly %g", x, got, want)
		}
	}
	if got := tanhApprox64(0); got != 0 || math.Signbit(got) {
		t.Errorf("tanhApprox64(0) = %g, want +0", got)
	}
	if got := tanhApprox64(math.Copysign(0, -1)); got != 0 || !math.Signbit(got) {
		t.Errorf("tanhApprox64(-0) = %g, want -0", got)
	}
	if got := tanhApprox64(math.NaN()); !math.IsNaN(got) {
		t.Errorf("tanhApprox64(NaN) = %g, want NaN", got)
	}
}

func TestKernelInfo(t *testing.T) {
	info := KernelInfo()
	if info.Family != cpufeat.Active().String() {
		t.Errorf("KernelInfo family %q, active %q", info.Family, cpufeat.Active())
	}
	if info.Arch != runtime.GOARCH {
		t.Errorf("KernelInfo arch %q, want %q", info.Arch, runtime.GOARCH)
	}
	if s := info.String(); s == "" {
		t.Error("KernelInfo banner is empty")
	}
}

// scalarNTRow64 is the float64 oracle of the NT dot tile: one output row
// over columns [jlo, jhi) in the asm's four-lane accumulate / pairwise
// combine / scalar K-tail order, bit-identical to the lanes. (The driver
// no longer calls a scalar model; it lives here to hold the lanes to it.)
func scalarNTRow64(ai []float64, k int, b []float64, ldb, jlo, jhi int, ci []float64, alpha, beta float64) {
	kv := k &^ 3
	for j := jlo; j < jhi; j++ {
		bj := b[j*ldb : j*ldb+k]
		var s0, s1, s2, s3 float64
		for p := 0; p < kv; p += 4 {
			s0 = math.FMA(ai[p], bj[p], s0)
			s1 = math.FMA(ai[p+1], bj[p+1], s1)
			s2 = math.FMA(ai[p+2], bj[p+2], s2)
			s3 = math.FMA(ai[p+3], bj[p+3], s3)
		}
		sum := (s0 + s2) + (s1 + s3)
		for p := kv; p < k; p++ {
			sum = math.FMA(ai[p], bj[p], sum)
		}
		t := alpha * sum
		if beta == 0 {
			ci[j] = t
		} else {
			ci[j] = math.FMA(beta, ci[j], t)
		}
	}
}

// ntOnePanel is the reference driver of TestNTPanelsBitIdentical: the
// problem zero-padded to an even row count and a multiple of four columns,
// so that it has no edges, then every row pair through the asm tile over
// all the columns in one call — one panel, whatever the reduction depth.
func ntOnePanel[T Float](fam cpufeat.Family, m, k, n int, alpha T, a, b []T, beta T, c []T) {
	m2, n4 := (m+1)&^1, (n+3)&^3
	pa, pb, pc := make([]T, m2*k), make([]T, n4*k), make([]T, m2*n4)
	copy(pa, a)
	copy(pb, b)
	for i := 0; i < m; i++ {
		copy(pc[i*n4:i*n4+n], c[i*n:])
	}
	args := tileArgs{
		b: unsafe.Pointer(&pb[0]), lda: uintptr(k), ldb: uintptr(k), ldc: uintptr(n4),
		k: uintptr(k), n: uintptr(n4), alpha: float64(alpha), beta: float64(beta),
	}
	for i := 0; i < m2; i += 2 {
		args.a = unsafe.Pointer(&pa[i*k])
		args.c = unsafe.Pointer(&pc[i*n4])
		ntTile[T](fam, &args)
	}
	for i := 0; i < m; i++ {
		copy(c[i*n:(i+1)*n], pc[i*n4:])
	}
}

// TestNTPanelsBitIdentical holds the column-panelled NT driver to the
// one-panel result, bitwise: the fitting net's 240→1600 backward (100 f64
// panels), a short chunk of it, an odd row count with a column tail, the
// embedding net's backward shapes (two panels; one staged column) and a
// shallow reduction whose panels are hundreds of columns wide. In float64
// the result is also the scalar oracle's, odd row and tail columns
// included. A NaN or an Inf in one B row reaches that output column and no
// other, whichever panel or staging block the row is in; and the row ranges
// of the goroutine fan-out give the bits of the serial call.
func TestNTPanelsBitIdentical(t *testing.T) {
	sweepFamilies(t, func(t *testing.T, fam cpufeat.Family) {
		if caps, ok := simdCaps(fam, 8); fam == cpufeat.Generic || !ok || !caps.hasNT {
			t.Skip("no NT tile in this family")
		}
		testNTPanels[float64](t, fam)
		testNTPanels[float32](t, fam)
	})
}

func testNTPanels[T Float](t *testing.T, fam cpufeat.Family) {
	var z T
	rng := rand.New(rand.NewSource(2020))
	for _, shape := range [][3]int{
		{256, 240, 1600}, {54, 240, 1600}, {255, 240, 1603}, {128, 100, 50}, {7, 25, 1}, {5, 8, 1030},
	} {
		m, k, n := shape[0], shape[1], shape[2]
		a, b, c0 := randMatT[T](rng, m, k), randMatT[T](rng, n, k), randMatT[T](rng, m, n)
		for _, ab := range [][2]T{{1, 0}, {0.5, 1}} {
			alpha, beta := ab[0], ab[1]
			label := fmt.Sprintf("%s %T %dx%d->%d (%d-column panels) alpha=%g beta=%g", fam, z, m, k, n, ntPanelCols[T](k), float64(alpha), float64(beta))
			run := func(b Matrix[T]) []T {
				got := append([]T(nil), c0.Data...)
				ntRowRange(fam, 0, m, k, n, alpha, a.Data, k, b.Data, k, beta, got, n)
				return got
			}
			got := run(b)
			want := append([]T(nil), c0.Data...)
			ntOnePanel(fam, m, k, n, alpha, a.Data, b.Data, beta, want)
			checkBitIdentical(t, label+": panelled vs one panel", got, want)

			if g64, ok := any(got).([]float64); ok {
				model := append([]float64(nil), any(c0.Data).([]float64)...)
				for i := 0; i < m; i++ {
					scalarNTRow64(any(a.Data).([]float64)[i*k:(i+1)*k], k, any(b.Data).([]float64), k, 0, n, model[i*n:], float64(alpha), float64(beta))
				}
				checkBitIdentical(t, label+": lanes vs scalar oracle", g64, model)
			}

			par := append([]T(nil), c0.Data...)
			if gemmNTSIMD(3, m, k, n, alpha, a.Data, k, b.Data, k, beta, par, n) {
				checkBitIdentical(t, label+": 3 workers vs serial", par, got)
			}

			// One non-finite B element per poisoned row: a first-panel
			// column, a middle one, and the last (a staged tail column when
			// n mod 4 != 0).
			bad := Matrix[T]{Rows: n, Cols: k, Data: append([]T(nil), b.Data...)}
			poison := map[int]T{0: T(math.NaN())}
			if n > 2 {
				poison[n/2] = T(math.Inf(1))
				poison[n-1] = T(math.Inf(-1))
			}
			for j, v := range poison {
				bad.Data[j*k+k/2] = v
			}
			dirty := run(bad)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					v := float64(dirty[i*n+j])
					p, poisoned := poison[j]
					switch {
					case !poisoned:
						if dirty[i*n+j] != got[i*n+j] {
							t.Fatalf("%s: clean column %d row %d = %g, was %g without the non-finite B rows", label, j, i, v, float64(got[i*n+j]))
						}
					case p != p:
						if !math.IsNaN(v) {
							t.Fatalf("%s: NaN column %d row %d = %g", label, j, i, v)
						}
					default:
						// ±Inf times a random A element: either infinity.
						if !math.IsInf(v, 0) {
							t.Fatalf("%s: Inf column %d row %d = %g", label, j, i, v)
						}
					}
				}
			}
		}
	}
}
