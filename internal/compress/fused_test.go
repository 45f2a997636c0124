package compress

import (
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// fusedCase is one (rows, count) input of the fused operator together with
// the materialised reference: the whole section through EvalBatch, then
// plain loops in float64 over the stored G and dG/ds — exactly what the
// evaluator did before the operator existed. Every reference output
// carries Σ|term|, the scale of its summation-roundoff bound.
type fusedCase[T tensor.Float] struct {
	tb   *Table[T]
	n    int
	rows []T // n real rows followed by poison the operator must not read
	acc0 []T // forward accumulator before the call
	dT   []T

	fwd, fwdAbs []float64 // 4 x m
	bwd, bwdAbs []float64 // n x 4
}

// fusedPad is how many poisoned rows follow the n real ones.
const fusedPad = 3

func newFusedCase[T tensor.Float](tb *Table[T], n int, rng *rand.Rand) *fusedCase[T] {
	m := tb.M
	fc := &fusedCase[T]{tb: tb, n: n}
	nan := T(math.NaN())
	fc.rows = make([]T, 4*(n+fusedPad))
	for i := range fc.rows {
		fc.rows[i] = nan
	}
	s := make([]T, n)
	for k := 0; k < n; k++ {
		// s mostly inside the domain, sometimes past either edge.
		s[k] = T(tb.SMin + (rng.Float64()*1.2-0.1)*(tb.SMax-tb.SMin))
		fc.rows[4*k] = s[k]
		for j := 1; j < 4; j++ {
			fc.rows[4*k+j] = T(rng.NormFloat64())
		}
	}
	fc.acc0 = make([]T, 4*m)
	fc.dT = make([]T, 4*m)
	for i := range fc.acc0 {
		fc.acc0[i] = T(rng.NormFloat64())
		fc.dT[i] = T(rng.NormFloat64())
	}

	fc.reference()
	return fc
}

// reference (re)computes the materialised outputs from fc.rows.
func (fc *fusedCase[T]) reference() {
	tb, n, m := fc.tb, fc.n, fc.tb.M
	s := make([]T, n)
	for k := range s {
		s[k] = fc.rows[4*k]
	}
	g := make([]T, n*m)
	dg := make([]T, n*m)
	tb.EvalBatch(nil, s, g, dg)
	fc.fwd, fc.fwdAbs = make([]float64, 4*m), make([]float64, 4*m)
	fc.bwd, fc.bwdAbs = make([]float64, 4*n), make([]float64, 4*n)
	for i, v := range fc.acc0 {
		fc.fwd[i], fc.fwdAbs[i] = float64(v), math.Abs(float64(v))
	}
	for k := 0; k < n; k++ {
		var b, bAbs [4]float64
		for c := 0; c < m; c++ {
			gv, dv := float64(g[k*m+c]), float64(dg[k*m+c])
			for j := 0; j < 4; j++ {
				r, t := float64(fc.rows[4*k+j]), float64(fc.dT[j*m+c])
				fc.fwd[j*m+c] += gv * r
				fc.fwdAbs[j*m+c] += math.Abs(gv * r)
				fc.bwd[4*k+j] += gv * t
				fc.bwdAbs[4*k+j] += math.Abs(gv * t)
				b[j] += dv * t
				bAbs[j] += math.Abs(dv * t)
			}
		}
		for j := 0; j < 4; j++ {
			r := float64(fc.rows[4*k+j])
			fc.bwd[4*k] += r * b[j]
			fc.bwdAbs[4*k] += math.Abs(r) * bAbs[j]
		}
	}
}

func epsOf[T tensor.Float]() float64 {
	var z T
	if _, ok := any(z).(float32); ok {
		return 1.0 / (1 << 23)
	}
	return 1.0 / (1 << 52)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// check runs both passes under the active family with NaN-poisoned
// scratch and asserts the documented agreement with the materialised
// reference — (terms+4)·eps·Σ|term| per output, wherever the reference is
// finite — and that nothing at or beyond row n was read (the poison would
// surface as NaN) or written.
func (fc *fusedCase[T]) check(t *testing.T, label string) {
	t.Helper()
	m, n, eps := fc.tb.M, fc.n, epsOf[T]()
	nan := T(math.NaN())
	buf := make([]T, FusedScratchLen(m))
	poison := func() {
		for i := range buf {
			buf[i] = nan
		}
	}

	acc := append([]T(nil), fc.acc0...)
	poison()
	fc.tb.ContractForward(fc.rows, n, acc, buf)
	for i, got := range acc {
		tol := float64(n+5) * eps * fc.fwdAbs[i]
		if d := math.Abs(float64(got) - fc.fwd[i]); !(d <= tol) && finite(fc.fwd[i]) {
			t.Fatalf("%s forward acc[%d][%d]: got %v want %v (|diff| %g > %g)", label, i/m, i%m, got, fc.fwd[i], d, tol)
		}
	}

	const sentinel = 12345.5
	nd := make([]T, 4*(n+fusedPad))
	for i := range nd {
		nd[i] = sentinel
	}
	poison()
	fc.tb.ContractBackward(fc.rows, n, fc.dT, nd, buf)
	for i := 0; i < 4*n; i++ {
		tol := float64(5*m+8) * eps * fc.bwdAbs[i]
		if d := math.Abs(float64(nd[i]) - fc.bwd[i]); !(d <= tol) && finite(fc.bwd[i]) {
			t.Fatalf("%s backward nd[%d][%d]: got %v want %v (|diff| %g > %g)", label, i/4, i%4, nd[i], fc.bwd[i], d, tol)
		}
	}
	for i := 4 * n; i < len(nd); i++ {
		if nd[i] != sentinel {
			t.Fatalf("%s backward wrote nd[%d] beyond the %d-row count", label, i, n)
		}
	}
}

// TestFusedContractMatchesMaterialised is the kernel differential of the
// fused operator: counts around the tile boundary and at a full copper
// section, channel counts that hit the vector blocks, the masked/scalar
// tail and both at once, both precisions, every kernel family the host
// can execute (Generic included; a purego build runs Generic alone).
func TestFusedContractMatchesMaterialised(t *testing.T) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, m := range []int{1, 7, 100} {
		tb64 := buildTestTable(t, m)
		tb32 := Convert[float32](tb64)
		for _, n := range []int{0, 1, FusedTile - 1, FusedTile, FusedTile + 1, 500} {
			rng := rand.New(rand.NewSource(int64(1000*m + n)))
			fc64 := newFusedCase(tb64, n, rng)
			fc32 := newFusedCase(tb32, n, rng)
			for _, fam := range fusedFamilies() {
				if _, err := cpufeat.SetActive(fam); err != nil {
					t.Fatal(err)
				}
				fc64.check(t, fam.String()+"/f64")
				fc32.check(t, fam.String()+"/f32")
			}
		}
	}
}

// The operator is a pure function of its section: evaluating the same
// rows again — after other sections went through the same scratch — gives
// the same bits, which is what makes an atom's result independent of the
// chunk or worker that evaluates it.
func TestFusedContractDeterministic(t *testing.T) {
	m := 100
	tb := Convert[float32](buildTestTable(t, m))
	rng := rand.New(rand.NewSource(5))
	a, b := newFusedCase(tb, 37, rng), newFusedCase(tb, 180, rng)
	buf := make([]float32, FusedScratchLen(m))
	run := func(fc *fusedCase[float32]) ([]float32, []float32) {
		acc := append([]float32(nil), fc.acc0...)
		nd := make([]float32, 4*fc.n)
		tb.ContractForward(fc.rows, fc.n, acc, buf)
		tb.ContractBackward(fc.rows, fc.n, fc.dT, nd, buf)
		return acc, nd
	}
	acc1, nd1 := run(a)
	run(b)
	acc2, nd2 := run(a)
	for i := range acc1 {
		if !bitsEqual(acc1[i], acc2[i]) {
			t.Fatalf("forward acc[%d] changed between identical calls", i)
		}
	}
	for i := range nd1 {
		if !bitsEqual(nd1[i], nd2[i]) {
			t.Fatalf("backward nd[%d] changed between identical calls", i)
		}
	}
}

// FuzzFusedContract drives the fused operator with arbitrary s bit
// patterns (out of domain, denormal, infinite, NaN) at arbitrary counts up
// to a copper-sized section, under every kernel family the host can
// execute. The contract: no panic and no access at or beyond the count —
// the rows there are NaN poison and nd carries a sentinel — and agreement
// with the materialised reference within the summation bound on every
// output the reference keeps finite.
func FuzzFusedContract(f *testing.F) {
	tb64 := buildTestTable(f, 21)
	tb32 := Convert[float32](tb64)
	f.Add(uint64(0), uint16(0), uint8(0))
	f.Add(math.Float64bits(1.0), uint16(1), uint8(1))
	f.Add(math.Float64bits(-3.5), uint16(FusedTile), uint8(2))
	f.Add(math.Float64bits(math.NaN()), uint16(FusedTile+1), uint8(0))
	f.Add(math.Float64bits(math.Inf(1)), uint16(33), uint8(1))
	f.Add(math.Float64bits(5e-324), uint16(500), uint8(2))
	f.Add(math.Float64bits(1e300), uint16(47), uint8(0))

	fams := fusedFamilies()
	f.Fuzz(func(t *testing.T, sBits uint64, count uint16, famSel uint8) {
		prev := cpufeat.Active()
		defer cpufeat.SetActive(prev)
		if _, err := cpufeat.SetActive(fams[int(famSel)%len(fams)]); err != nil {
			t.Fatal(err)
		}
		n := int(count) % 501
		rng := rand.New(rand.NewSource(int64(sBits) ^ int64(n)))
		fuzzFusedOne(t, tb64, n, math.Float64frombits(sBits), rng)
		fuzzFusedOne(t, tb32, n, math.Float64frombits(sBits), rng)
	})
}

// fuzzFusedOne plants the fuzzed s at one row of an otherwise ordinary
// section and checks the operator against the reference of those rows.
func fuzzFusedOne[T tensor.Float](t *testing.T, tb *Table[T], n int, s float64, rng *rand.Rand) {
	fc := newFusedCase(tb, n, rng)
	if n > 0 {
		fc.rows[4*rng.Intn(n)] = T(s)
		fc.reference()
	}
	fc.check(t, cpufeat.Active().String())
}
