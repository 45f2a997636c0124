package descriptor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

func randSlice[T tensor.Float](rng *rand.Rand, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = T(rng.NormFloat64())
	}
	return s
}

// testContractions checks the four contractions of one tile against plain
// double-precision loops within the recursive-summation bound
// (terms+4)·eps·Σ|term|, and that ContractRows and ContractOuter give a
// row the same bits whether it is evaluated alone or anywhere in a tile —
// what lets the exact operator's tiles span atoms without the result
// depending on chunk composition.
func testContractions[T tensor.Float](t *testing.T, eps float64) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{7, 16, 100} {
		for _, nk := range []int{0, 1, 2, 3, 4, 5, 16, 33} {
			label := fmt.Sprintf("%T m=%d nk=%d", T(0), m, nk)
			g, dg := randSlice[T](rng, nk*m), randSlice[T](rng, nk*m)
			rows, dT := randSlice[T](rng, 4*nk), randSlice[T](rng, 4*m)
			acc0 := randSlice[T](rng, 4*m)
			within := func(what string, got T, want, abs float64, terms int) {
				t.Helper()
				if d := math.Abs(float64(got) - want); d > float64(terms+4)*eps*abs {
					t.Fatalf("%s %s: got %g, want %g (|diff| %g > bound %g)", label, what, float64(got), want, d, float64(terms+4)*eps*abs)
				}
			}

			acc := append([]T(nil), acc0...)
			ContractForward(g, rows, m, acc)
			for j := 0; j < 4; j++ {
				for c := 0; c < m; c++ {
					want, abs := float64(acc0[j*m+c]), math.Abs(float64(acc0[j*m+c]))
					for i := 0; i < nk; i++ {
						v := float64(g[i*m+c]) * float64(rows[4*i+j])
						want, abs = want+v, abs+math.Abs(v)
					}
					within(fmt.Sprintf("forward[%d][%d]", j, c), acc[j*m+c], want, abs, nk+1)
				}
			}

			ab := randSlice[T](rng, 8*nk)
			ContractBackward(g, dg, dT, nk, m, ab)
			out := randSlice[T](rng, 4*nk)
			ContractRows(g, dT, nk, m, out, make([]T, 8*((nk+1)/2)))
			dG := randSlice[T](rng, nk*m)
			ContractOuter(rows, dT, m, dG, make([]T, 4*m))
			for i := 0; i < nk; i++ {
				for j := 0; j < 4; j++ {
					var a, aAbs, b, bAbs float64
					for c := 0; c < m; c++ {
						va, vb := float64(g[i*m+c])*float64(dT[j*m+c]), float64(dg[i*m+c])*float64(dT[j*m+c])
						a, aAbs, b, bAbs = a+va, aAbs+math.Abs(va), b+vb, bAbs+math.Abs(vb)
					}
					within(fmt.Sprintf("backward a[%d][%d]", i, j), ab[8*i+j], a, aAbs, m)
					within(fmt.Sprintf("backward b[%d][%d]", i, j), ab[8*i+4+j], b, bAbs, m)
					within(fmt.Sprintf("rows[%d][%d]", i, j), out[4*i+j], a, aAbs, m)
				}
				for c := 0; c < m; c++ {
					var want, abs float64
					for j := 0; j < 4; j++ {
						v := float64(rows[4*i+j]) * float64(dT[j*m+c])
						want, abs = want+v, abs+math.Abs(v)
					}
					within(fmt.Sprintf("outer[%d][%d]", i, c), dG[i*m+c], want, abs, 4)
				}

				one, oneG := make([]T, 4), make([]T, m)
				ContractRows(g[i*m:(i+1)*m], dT, 1, m, one, make([]T, 8))
				ContractOuter(rows[4*i:4*i+4], dT, m, oneG, make([]T, 4*m))
				for j := range one {
					if one[j] != out[4*i+j] {
						t.Fatalf("%s rows[%d][%d]: %g alone, %g in the tile", label, i, j, float64(one[j]), float64(out[4*i+j]))
					}
				}
				for c := range oneG {
					if oneG[c] != dG[i*m+c] {
						t.Fatalf("%s outer[%d][%d]: %g alone, %g in the tile", label, i, c, float64(oneG[c]), float64(dG[i*m+c]))
					}
				}
			}
		}
	}
}

func TestContractionsDifferential(t *testing.T) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range []cpufeat.Family{cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512} {
		if !cpufeat.Available(fam) {
			continue
		}
		t.Run(fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			testContractions[float64](t, 1.0/(1<<52))
			testContractions[float32](t, 1.0/(1<<23))
		})
	}
}

// FuzzDescriptorProducts holds ContractDescriptor and
// ContractDescriptorBackward to their Go loops bit for bit under every
// kernel family the host executes — a NaN for a NaN: which payload
// survives a NaN-NaN pair is the operand order the Go compiler picks for
// the loop, and that moves with the build (this test's seeds give other
// payloads under -fuzz instrumentation than without). Channel counts
// m = 1..130 and axis counts ax = 1..min(m, 32) (every masked chunk and
// block of both lane widths), elements of T and dD taken from the input
// bytes as raw bit patterns (NaNs of any payload, infinities, signed
// zeros, subnormals) where the bytes reach, and guard elements behind
// every array that neither product may write (nor, for dD, the backward).
func FuzzDescriptorProducts(f *testing.F) {
	nan := func(p uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], 0x7ff8000000000000|p)
		return b[:]
	}
	specials := append(append(append(nan(1), nan(2)...), nan(3|1<<51)...),
		0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0)
	f.Add(int64(1), uint8(100), uint8(16), math.Float64bits(1.0/3), []byte{})
	f.Add(int64(2), uint8(1), uint8(1), math.Float64bits(0.5), specials)
	f.Add(int64(3), uint8(130), uint8(32), math.Float64bits(-2), specials)
	f.Add(int64(4), uint8(17), uint8(9), math.Float64bits(1), bytes.Repeat(specials, 40))
	f.Add(int64(5), uint8(33), uint8(31), uint64(0x7ff8000000000005), bytes.Repeat(nan(7), 300))
	f.Fuzz(func(t *testing.T, seed int64, mb, axb uint8, scaleBits uint64, data []byte) {
		m := 1 + int(mb)%130
		ax := 1 + int(axb)%min(m, 32)
		checkDescriptorProducts[float64](t, seed, m, ax, math.Float64frombits(scaleBits), data)
		checkDescriptorProducts[float32](t, seed, m, ax, float32(math.Float64frombits(scaleBits)), data)
	})
}

const productGuard = 19

func checkDescriptorProducts[T tensor.Float](t *testing.T, seed int64, m, ax int, scale T, data []byte) {
	var z T
	es := int(unsafe.Sizeof(z))
	rng := rand.New(rand.NewSource(seed))
	// fill draws normals, overlaid by the input bytes read es at a time.
	fill := func(n int) []T {
		x := randSlice[T](rng, n+productGuard)
		for i := 0; i < n && len(data) >= es; i++ {
			if es == 8 {
				x[i] = any(math.Float64frombits(binary.LittleEndian.Uint64(data))).(T)
			} else {
				x[i] = any(math.Float32frombits(binary.LittleEndian.Uint32(data))).(T)
			}
			data = data[es:]
		}
		return x
	}
	t0, dD := fill(4*m), fill(m*ax)
	d0, buf0 := fill(m*ax), fill(8*ax)

	wantD := slices.Clone(d0)
	descriptorGo(t0, m, ax, wantD)
	wantT, wantBuf := slices.Clone(t0), slices.Clone(buf0)
	descriptorBackwardGo(dD, m, ax, scale, wantT, wantBuf)

	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range []cpufeat.Family{cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512} {
		if _, err := cpufeat.SetActive(fam); err != nil {
			continue
		}
		label := fmt.Sprintf("%s %T m=%d ax=%d", fam, z, m, ax)
		d := slices.Clone(d0)
		ContractDescriptor(t0[:4*m], m, ax, d[:m*ax])
		sameBitsOrFail(t, label+" D", d, wantD, m*ax)
		gotT, buf, dD1 := slices.Clone(t0), slices.Clone(buf0), slices.Clone(dD)
		ContractDescriptorBackward(dD1[:m*ax], m, ax, scale, gotT[:4*m], buf[:8*ax])
		sameBitsOrFail(t, label+" dT", gotT, wantT, 4*m)
		sameBitsOrFail(t, label+" dD", dD1, dD, len(dD))
		sameBitsOrFail(t, label+" scratch guard", buf[8*ax:], wantBuf[8*ax:], productGuard)
	}
}

// sameBitsOrFail compares got with want bitwise, any NaN equal to any
// NaN; n is where the guard elements start, for the message.
func sameBitsOrFail[T tensor.Float](t *testing.T, label string, got, want []T, n int) {
	t.Helper()
	for i := range want {
		var g, w uint64
		switch v := any(got[i]).(type) {
		case float64:
			g, w = math.Float64bits(v), math.Float64bits(any(want[i]).(float64))
		case float32:
			g, w = uint64(math.Float32bits(v)), uint64(math.Float32bits(any(want[i]).(float32)))
		}
		if g != w && !(got[i] != got[i] && want[i] != want[i]) {
			where := fmt.Sprintf("element %d", i)
			if i >= n {
				where = fmt.Sprintf("guard element %d", i-n)
			}
			t.Fatalf("%s: %s is %g (%#x), want %g (%#x)", label, where, float64(got[i]), g, float64(want[i]), w)
		}
	}
}
