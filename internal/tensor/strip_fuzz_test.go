package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/tensor/cpufeat"
)

// FuzzStripTileBits is the bitwise oracle of the AVX-512 strips'
// three-zmm group: a strip call over n columns (groups of 24 f64 or 48 f32
// columns, then the masked one-zmm chunks for the rest) must equal, bit
// for bit, the same strips run one zmm of columns per call, where only the
// one-zmm loop runs — a NaN for a NaN. Both go through the strip driver
// (simdRowRange), so rows 1-20 cover whole strips and the staged tail
// strip, and depths past simdMaxK its K panels; the tanh modes stop at one
// panel, as gemmSIMD does. Widths 1-260 (the tiny nets' 8 and 16 never
// reach a group; in f64 the paper's 25, 50, 100 and 240 leave 1, 2, 4 and
// 0 columns past the last one), modes 0-3, both precisions, alpha and
// beta from a set with 0, -0, 1 and NaN, and arbitrary bit patterns (NaN
// payloads, infinities, subnormals) planted in A, B, the bias and C. A, B
// and the bias are not written, nor anything of C and grad outside the
// m x n block: the row padding and a last row are canaries. Skipped where
// AVX-512 cannot run. CI runs it for 30s.
func FuzzStripTileBits(f *testing.F) {
	if !cpufeat.Available(cpufeat.AVX512) {
		f.Skip("AVX-512 strip kernels not executable on this host/build")
	}
	special := func(sel byte, idx uint16, v float64) []byte {
		b := []byte{sel, byte(idx), byte(idx >> 8), 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[3:], math.Float64bits(v))
		return b
	}
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	// The water nets' layers (1→25→50→100 embedding, 240-wide fitting,
	// 1600-deep first fitting layer in K panels) and the tiny nets' widths,
	// in both precisions.
	f.Add(uint8(20), uint16(1), uint16(25), uint8(3), uint8(0), false, int64(1), []byte(nil))
	f.Add(uint8(17), uint16(25), uint16(50), uint8(3), uint8(0), false, int64(2), special(0, 7, math.NaN()))
	f.Add(uint8(9), uint16(50), uint16(100), uint8(3), uint8(0), true, int64(3), special(1, 90, math.Inf(1)))
	f.Add(uint8(20), uint16(240), uint16(240), uint8(3), uint8(0), false, int64(4), special(2, 23, nanPayload))
	f.Add(uint8(16), uint16(240), uint16(240), uint8(1), uint8(0), false, int64(5), special(1, 300, 5e-324))
	f.Add(uint8(11), uint16(299), uint16(240), uint8(0), uint8(2), true, int64(6), special(3, 17, math.Inf(-1)))
	f.Add(uint8(8), uint16(100), uint16(24), uint8(2), uint8(0), false, int64(7), special(0, 3, math.Copysign(0, -1)))
	f.Add(uint8(3), uint16(7), uint16(4), uint8(0), uint8(9), false, int64(8), []byte(nil))
	f.Add(uint8(19), uint16(13), uint16(8), uint8(1), uint8(0), true, int64(9), []byte(nil))
	f.Add(uint8(5), uint16(33), uint16(16), uint8(3), uint8(0), false, int64(10), []byte(nil))
	f.Add(uint8(12), uint16(64), uint16(259), uint8(0), uint8(13), false, int64(11), append(special(3, 40, nanPayload), special(2, 200, -2.5e-310)...))
	f.Add(uint8(7), uint16(2), uint16(49), uint8(0), uint8(22), true, int64(12), special(1, 48, math.NaN()))
	f.Add(uint8(0), uint16(0), uint16(0), uint8(0), uint8(0), false, int64(13), []byte(nil))
	f.Add(uint8(20), uint16(240), uint16(240), uint8(3), uint8(0), true, int64(14), special(2, 5, nanPayload))
	f.Add(uint8(13), uint16(25), uint16(50), uint8(2), uint8(0), true, int64(15), special(0, 11, math.Inf(1)))
	f.Add(uint8(9), uint16(257), uint16(96), uint8(0), uint8(7), true, int64(16), special(3, 95, 1e-41))

	f.Fuzz(func(t *testing.T, m8 uint8, k16, n16 uint16, mode8, ab uint8, single bool, seed int64, special []byte) {
		// The sizes wrap into 1-20, 1-300 and 1-260, each mapping to itself.
		m, k, n, mode := 1+(int(m8)+19)%20, 1+(int(k16)+299)%300, 1+(int(n16)+259)%260, int(mode8)%4
		if mode >= epiTanh {
			k = min(k, simdMaxK)
		}
		scales := []float64{1, 0, math.Copysign(0, -1), math.NaN(), -1.25, 0.5}
		alpha, beta := scales[int(ab)%len(scales)], scales[int(ab)/len(scales)%len(scales)]
		if single {
			stripBitsOne[float32](t, m, k, n, mode, alpha, beta, seed, special)
		} else {
			stripBitsOne[float64](t, m, k, n, mode, alpha, beta, seed, special)
		}
	})
}

// stripBitsOne builds one case from seed and the special records (an
// 11-byte record: target, element index, element bits — the low 32 of
// them in f32) and compares the two routes.
func stripBitsOne[T Float](t *testing.T, m, k, n, mode int, alpha, beta float64, seed int64, special []byte) {
	const pad = 3
	sentinel := T(-7.25)
	rng := rand.New(rand.NewSource(seed))
	lda, ldb, ldc := k+rng.Intn(pad), n+rng.Intn(pad), n+pad
	fill := func(n int) []T {
		v := make([]T, n)
		for i := range v {
			v[i] = T(rng.NormFloat64())
		}
		return v
	}
	a, b, bias, c0 := fill(m*lda), fill(k*ldb), fill(n), fill((m+1)*ldc)
	for ; len(special) >= 11; special = special[11:] {
		idx := int(binary.LittleEndian.Uint16(special[1:3]))
		v := fromBits[T](binary.LittleEndian.Uint64(special[3:11]))
		switch special[0] % 4 {
		case 0:
			a[idx%len(a)] = v
		case 1:
			b[idx%len(b)] = v
		case 2:
			bias[idx%n] = v
		case 3:
			c0[(idx%m)*ldc+idx%n] = v
		}
	}
	for i := range c0 {
		if i >= m*ldc || i%ldc >= n {
			c0[i] = sentinel
		}
	}
	a0, b0, bias0 := append([]T(nil), a...), append([]T(nil), b...), append([]T(nil), bias...)

	prev, err := cpufeat.SetActive(cpufeat.AVX512)
	if err != nil {
		t.Fatal(err)
	}
	defer cpufeat.SetActive(prev)
	var z T
	caps, _ := simdCaps(cpufeat.AVX512, sizeofT(z))
	// run computes the m x n block in calls of w columns.
	run := func(w int) (c, grad []T) {
		c = append([]T(nil), c0...)
		grad = make([]T, len(c0))
		for i := range grad {
			grad[i] = sentinel
		}
		for j0 := 0; j0 < n; j0 += w {
			simdRowRange(cpufeat.AVX512, caps, m, k, min(w, n-j0), T(alpha), a, lda, b[j0:], ldb, T(beta), c[j0:], ldc, bias[j0:], mode, grad[j0:], ldc)
		}
		return c, grad
	}
	cGroup, gGroup := run(n)
	cOne, gOne := run(caps.cover)
	for i := range cGroup {
		if !sameBits(cGroup[i], cOne[i]) {
			t.Fatalf("%T m=%d k=%d n=%d mode=%d alpha=%v beta=%v: C[%d][%d] group %v != one-zmm %v",
				z, m, k, n, mode, alpha, beta, i/ldc, i%ldc, cGroup[i], cOne[i])
		}
		if !sameBits(gGroup[i], gOne[i]) {
			t.Fatalf("%T m=%d k=%d n=%d mode=%d: grad[%d][%d] group %v != one-zmm %v",
				z, m, k, n, mode, i/ldc, i%ldc, gGroup[i], gOne[i])
		}
		inside := i < m*ldc && i%ldc < n
		if !inside && (cGroup[i] != sentinel || gGroup[i] != sentinel) {
			t.Fatalf("m=%d k=%d n=%d mode=%d: canary at [%d][%d] written", m, k, n, mode, i/ldc, i%ldc)
		}
		if inside && mode != epiTanhGrad && gGroup[i] != sentinel {
			t.Fatalf("m=%d k=%d n=%d mode=%d: grad[%d][%d] written outside mode %d", m, k, n, mode, i/ldc, i%ldc, epiTanhGrad)
		}
	}
	for _, in := range []struct {
		name      string
		got, want []T
	}{{"A", a, a0}, {"B", b, b0}, {"bias", bias, bias0}} {
		for i := range in.got {
			if !sameBits(in.got[i], in.want[i]) {
				t.Fatalf("m=%d k=%d n=%d mode=%d: %s[%d] written", m, k, n, mode, in.name, i)
			}
		}
	}
}
