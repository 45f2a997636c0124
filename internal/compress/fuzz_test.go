package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/nn"
	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// FuzzCompressLookup drives the lookup with arbitrary float64 bit
// patterns — below SMin, above SMax, exactly on knots, denormal-adjacent,
// NaN and the infinities — and asserts the documented contract:
//
//   - never panics or indexes out of bounds, for any input;
//   - out-of-domain inputs continue the edge polynomial linearly
//     (value = edge + edge slope * offset, derivative = edge slope), so
//     the surface stays C¹ and conservative past the domain; NaN lands
//     on the lower edge — which is where the exact path's cutoff
//     smoothing pins every non-neighbor (s = 0) anyway;
//   - in-domain inputs produce finite outputs that match the exact net
//     within the resolution-tied tolerance (out-of-domain continuations
//     are finite exactly when the linear formula is — only astronomical
//     inputs can overflow it).
//
// CI runs this for 30s alongside the GEMM fuzzers.
func FuzzCompressLookup(f *testing.F) {
	net := nn.NewEmbeddingNet[float64](rand.New(rand.NewSource(11)), []int{4, 8, 16})
	sp := Spec{SMin: 0, SMax: 2.5, NSeg: 64}
	tb, err := Build(net, sp)
	if err != nil {
		f.Fatal(err)
	}
	h := tb.H()

	seed := func(s float64) { f.Add(math.Float64bits(s)) }
	seed(-1)                         // below SMin
	seed(0)                          // lower edge, the padding-slot value
	seed(math.Copysign(0, -1))       // negative zero
	seed(5e-324)                     // smallest denormal
	seed(-5e-324)                    // denormal below the domain
	seed(math.Nextafter(0, -1))      //
	seed(1.0)                        // interior
	seed(7 * h)                      // exactly on a knot
	seed(math.Nextafter(7*h, 0))     // adjacent below a knot
	seed(math.Nextafter(7*h, 8))     // adjacent above a knot
	seed(sp.SMax)                    // upper edge
	seed(math.Nextafter(sp.SMax, 9)) // just above
	seed(sp.SMax + 10)               // far above
	seed(1e308)                      // huge
	seed(math.Inf(1))                //
	seed(math.Inf(-1))               //
	seed(math.NaN())                 //

	m := tb.M
	g := make([]float64, m)
	dg := make([]float64, m)
	gRef := make([]float64, m)
	dgRef := make([]float64, m)
	f.Fuzz(func(t *testing.T, bits uint64) {
		s := math.Float64frombits(bits)
		tb.Eval(s, g, dg) // must not panic for ANY input

		// Extrapolation semantics: out-of-domain lookups must equal the
		// linear continuation of the edge polynomial, bitwise (NaN lands
		// on the lower edge with zero offset).
		edge, delta := s, 0.0
		if math.IsNaN(s) {
			edge, delta = sp.SMin, 0
		} else if s < sp.SMin {
			edge, delta = sp.SMin, s-sp.SMin
		} else if s > sp.SMax {
			edge, delta = sp.SMax, s-sp.SMax
		}
		tb.Eval(edge, gRef, dgRef)
		inDomain := s >= sp.SMin && s <= sp.SMax
		for c := 0; c < m; c++ {
			want := gRef[c] + dgRef[c]*delta
			same := g[c] == want || (math.IsNaN(g[c]) && math.IsNaN(want))
			if !same || dg[c] != dgRef[c] {
				t.Fatalf("s=%g (bits %#x): got (%g, %g) at channel %d, want linear continuation (%g, %g) from edge %g",
					s, bits, g[c], dg[c], c, want, dgRef[c], edge)
			}
			if inDomain && (math.IsNaN(g[c]) || math.IsInf(g[c], 0) || math.IsNaN(dg[c]) || math.IsInf(dg[c], 0)) {
				t.Fatalf("s=%g (bits %#x): non-finite output channel %d (g=%g dg=%g)", s, bits, c, g[c], dg[c])
			}
		}

		// In-domain inputs additionally track the exact net under the
		// resolution-tied tolerance (h⁶/h⁵ with a generous constant).
		if s >= sp.SMin && s <= sp.SMax {
			val, d1, _ := net.ForwardTaylor2(s)
			for c := 0; c < m; c++ {
				if d := math.Abs(g[c] - val[c]); d > 1e-7*(1+math.Abs(val[c])) {
					t.Fatalf("s=%g channel %d: table %g vs net %g", s, c, g[c], val[c])
				}
				if d := math.Abs(dg[c] - d1[c]); d > 1e-5*(1+math.Abs(d1[c])) {
					t.Fatalf("s=%g channel %d: table deriv %g vs net %g", s, c, dg[c], d1[c])
				}
			}
		}
	})
}

// FuzzFusedTileBits is the bitwise oracle of the AVX-512 tile kernels:
// ContractForward's accumulator and ContractBackward's nd under AVX-512
// (the tile route) must equal, bit for bit, the same calls under AVX2
// (the row sweep, the AVX2 contraction kernels and their Go channel
// tails), a NaN for a NaN. Float32 tables (float64 ones take the row route
// on every family), channel counts 1-130, row counts 0-200; the section's
// s values lie mostly in the domain and on
// knots, so most tiles take the kernels, and the special records plant
// arbitrary bit patterns (out of domain, ±Inf, NaN, subnormals) in s, the
// other row elements and dT. Nothing past the row count is read (those
// rows are NaN poison) and nothing past 4·m of the accumulator or 4·n of
// nd is written. Skipped where AVX-512 cannot run. CI runs it for 30s.
func FuzzFusedTileBits(f *testing.F) {
	if !cpufeat.Available(cpufeat.AVX512) || !cpufeat.Available(cpufeat.AVX2) {
		f.Skip("AVX-512 tile kernels not executable on this host/build")
	}
	special := func(sel byte, idx uint16, v float64) []byte {
		b := []byte{sel, byte(idx), byte(idx >> 8), 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[3:], math.Float64bits(v))
		return b
	}
	f.Add(uint8(99), uint8(182), int64(1), []byte(nil)) // copper: m = 100, n = 182
	f.Add(uint8(24), uint8(37), int64(2), []byte(nil))
	f.Add(uint8(6), uint8(16), int64(3), special(0, 3, math.NaN()))
	f.Add(uint8(3), uint8(17), int64(4), special(0, 0, math.Inf(1)))
	f.Add(uint8(20), uint8(40), int64(5), special(0, 9, -1))
	f.Add(uint8(100), uint8(31), int64(6), special(0, 2, 1e-45))
	f.Add(uint8(129), uint8(33), int64(7), append(special(1, 5, math.Inf(-1)), special(2, 77, math.NaN())...))
	f.Add(uint8(47), uint8(1), int64(8), append(special(1, 2, math.Copysign(0, -1)), special(2, 1, 1e-40)...))

	var tabs [131]*Table[float32]
	f.Fuzz(func(t *testing.T, m8, n8 uint8, seed int64, special []byte) {
		m, n := 1+int(m8)%130, int(n8)%201
		if tabs[m] == nil {
			tabs[m] = Convert[float32](buildTestTable(t, m))
		}
		tileBitsOne(t, tabs[m], n, seed, special)
	})
}

// tileBitsOne builds one section from seed and the special records and
// compares the two families' outputs bit for bit. A record's value is
// narrowed from float64, which reaches every float32 but some NaN
// payloads.
func tileBitsOne(t *testing.T, tb *Table[float32], n int, seed int64, special []byte) {
	type T = float32
	const guard = 5
	m, rng := tb.M, rand.New(rand.NewSource(seed))
	nan, sentinel := T(math.NaN()), T(-7.25)
	rows := make([]T, 4*(n+guard))
	for i := range rows {
		rows[i] = nan
	}
	h := tb.H()
	for k := 0; k < n; k++ {
		if rng.Intn(4) == 0 {
			rows[4*k] = T(tb.SMin + h*float64(rng.Intn(tb.NSeg+1))) // a knot
		} else {
			rows[4*k] = T(tb.SMin + rng.Float64()*(tb.SMax-tb.SMin))
		}
		for j := 1; j < 4; j++ {
			rows[4*k+j] = T(rng.NormFloat64())
		}
	}
	dT, acc0 := make([]T, 4*m+guard), make([]T, 4*m)
	for i := range dT {
		dT[i] = T(rng.NormFloat64())
	}
	for i := range acc0 {
		acc0[i] = T(rng.NormFloat64())
	}
	for ; len(special) >= 11; special = special[11:] {
		idx := int(binary.LittleEndian.Uint16(special[1:3]))
		bits := binary.LittleEndian.Uint64(special[3:11])
		v := T(math.Float64frombits(bits))
		switch {
		case special[0]%3 == 0 && n > 0:
			rows[4*(idx%n)] = v
		case special[0]%3 == 1 && n > 0:
			rows[idx%(4*n)] = v
		case special[0]%3 == 2:
			dT[idx%(4*m)] = v
		}
	}
	for i := 4 * m; i < len(dT); i++ {
		dT[i] = nan
	}

	run := func(fam cpufeat.Family) (acc, nd []T) {
		prev, err := cpufeat.SetActive(fam)
		if err != nil {
			t.Fatal(err)
		}
		defer cpufeat.SetActive(prev)
		buf := make([]T, FusedScratchLen(m))
		for i := range buf {
			buf[i] = nan
		}
		acc = make([]T, 4*m+guard)
		copy(acc, acc0)
		for i := 4 * m; i < len(acc); i++ {
			acc[i] = sentinel
		}
		nd = make([]T, 4*(n+guard))
		for i := range nd {
			nd[i] = sentinel
		}
		tb.ContractForward(rows, n, acc[:4*m], buf)
		tb.ContractBackward(rows, n, dT[:4*m], nd[:4*n], buf)
		return acc, nd
	}
	accZ, ndZ := run(cpufeat.AVX512)
	accY, ndY := run(cpufeat.AVX2)
	for i := range accZ {
		if !sameBits(accZ[i], accY[i]) {
			t.Fatalf("m=%d n=%d: acc[%d] avx512 %x != avx2 %x", m, n, i, accZ[i], accY[i])
		}
	}
	for i := range ndZ {
		if !sameBits(ndZ[i], ndY[i]) {
			t.Fatalf("m=%d n=%d: nd[%d] avx512 %x != avx2 %x", m, n, i, ndZ[i], ndY[i])
		}
	}
	for i := 4 * m; i < len(accZ); i++ {
		if accZ[i] != sentinel {
			t.Fatalf("m=%d n=%d: acc guard %d written", m, n, i-4*m)
		}
	}
	for i := 4 * n; i < len(ndZ); i++ {
		if ndZ[i] != sentinel {
			t.Fatalf("m=%d n=%d: nd guard %d written", m, n, i-4*n)
		}
	}
}

// sameBits is bitsEqual with every NaN equal to every NaN: which payload
// a NaN-NaN operation keeps depends on the operand order the Go compiler
// picks for the reference loops, which no build promises.
func sameBits[T tensor.Float](a, b T) bool {
	return bitsEqual(a, b) || (a != a && b != b)
}
