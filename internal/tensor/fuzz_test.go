package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// FuzzGemm is the differential fuzz harness for the whole GEMM family: the
// fuzzer drives shape, alpha/beta, variant, precision and the forced SIMD
// kernel family, and every case is checked against the naive reference /
// float64 recomputation under the tolerance policy of differential_test.go,
// with C and grad between guard elements that must survive the call. CI
// runs it for 30 s on every PR:
//
//	go test -fuzz=FuzzGemm -fuzztime=30s ./internal/tensor/
func FuzzGemm(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(8), uint8(4), 1.0, 0.0, uint8(0), uint8(1), false)
	f.Add(int64(2), uint8(33), uint16(65), uint8(9), 2.5, -0.5, uint8(1), uint8(2), true)
	f.Add(int64(3), uint8(0), uint16(1), uint8(129), 0.0, 1.0, uint8(2), uint8(7), false)
	f.Add(int64(4), uint8(130), uint16(240), uint8(17), -1.0, 0.3, uint8(3), uint8(3), true)
	f.Add(int64(5), uint8(64), uint16(50), uint8(100), 1.0, 1.0, uint8(4), uint8(5), false)
	f.Add(int64(6), uint8(255), uint16(255), uint8(255), 0.5, 1.0, uint8(0), uint8(7), true)
	// Beyond one K panel of the strip tier (simdMaxK = 256): the paper's
	// first fitting layer with copper's 244-row chunk (30 strips + a
	// 4-row tail strip) under every variant that reaches the strips, and
	// panel-boundary depths with row and column remainders.
	f.Add(int64(7), uint8(244), uint16(1600), uint8(240), 1.0, 0.0, uint8(3), uint8(2), true)
	f.Add(int64(8), uint8(244), uint16(1600), uint8(240), 1.0, 0.0, uint8(4), uint8(1), false)
	f.Add(int64(9), uint8(13), uint16(513), uint8(31), 2.5, -0.5, uint8(0), uint8(1), false)
	f.Add(int64(10), uint8(9), uint16(257), uint8(17), 1.0, 1.0, uint8(0), uint8(2), true)
	// A GemmNT with no rows, deep and wide enough for the NT dot tile.
	f.Add(int64(11), uint8(0), uint16(225), uint8(91), 1.0, 0.0, uint8(1), uint8(1), false)
	// Narrow layers on the SIMD families: widths 1, 2, 4, 7 and 15 below
	// every column cover (the AVX-512 masked chunk, the AVX2 staged tail),
	// the paper's 240 -> 1 head, and GemmNT at depths 1, 2, 4, 7 and 8 with
	// widths 1, 3 and 4 (the NT tile's staged edges), plus a k = 0 GemmNT.
	f.Add(int64(12), uint8(33), uint16(9), uint8(1), 1.0, 0.0, uint8(0), uint8(1), false)
	f.Add(int64(13), uint8(21), uint16(30), uint8(2), 2.5, -0.5, uint8(2), uint8(2), true)
	f.Add(int64(14), uint8(19), uint16(3), uint8(4), 1.0, 1.0, uint8(3), uint8(1), true)
	f.Add(int64(15), uint8(12), uint16(40), uint8(7), 1.0, 0.0, uint8(4), uint8(2), false)
	f.Add(int64(16), uint8(37), uint16(17), uint8(15), -1.0, 0.3, uint8(1), uint8(1), false)
	f.Add(int64(17), uint8(255), uint16(240), uint8(1), 1.0, 0.0, uint8(3), uint8(2), true)
	f.Add(int64(18), uint8(128), uint16(1), uint8(4), 1.0, 0.0, uint8(1), uint8(2), false)
	f.Add(int64(19), uint8(9), uint16(2), uint8(3), 0.5, 1.0, uint8(1), uint8(1), true)
	f.Add(int64(20), uint8(128), uint16(4), uint8(1), 1.0, 0.0, uint8(1), uint8(2), true)
	f.Add(int64(21), uint8(13), uint16(7), uint8(3), 2.5, -0.5, uint8(1), uint8(1), false)
	f.Add(int64(22), uint8(128), uint16(8), uint8(4), 1.0, 0.0, uint8(1), uint8(2), false)
	f.Add(int64(23), uint8(4), uint16(0), uint8(5), 1.0, 0.5, uint8(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, um uint8, uk uint16, un uint8, alpha, beta float64, variant, famSel uint8, single bool) {
		// k reaches 2047: eight K panels of the strip tier, well past
		// 2*simdMaxK+1.
		m, k, n := int(um), int(uk)%2048, int(un)
		v := int(variant) % numVariants
		// Saturated scale factors only probe overflow, not kernel logic;
		// clamp to a range where the tolerance bound stays meaningful.
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 8 {
			alpha = 1
		}
		if math.IsNaN(beta) || math.IsInf(beta, 0) || math.Abs(beta) > 8 {
			beta = 0
		}
		// Force one of the executable kernel families (Generic included) so
		// the fuzzer exercises every compiled code path, not just the
		// host's best.
		fams := simdTestFamilies()
		prev := cpufeat.Active()
		if _, err := cpufeat.SetActive(fams[int(famSel)%len(fams)]); err != nil {
			t.Fatal(err)
		}
		defer cpufeat.SetActive(prev)
		if single {
			runGemmVariantCase[float32](t, v, m, k, n, alpha, beta, seed)
		} else {
			runGemmVariantCase[float64](t, v, m, k, n, alpha, beta, seed)
		}
	})
}

// FuzzElementwise checks the element-wise lane passes of the nets —
// MulInto, AddSkipSame, AddSkipDouble, SkipDoubleBackward — against their
// Go loops, bit for bit, under every executable family. The fuzzer drives
// the row count (0-9), the width (1-67: every tail of both lane widths,
// around the paper's 25/50/100), where the matrices start in their buffers
// (so every alignment and every row stride a call can see), the precision
// and arbitrary bit patterns: NaN payloads, infinities, subnormals and
// signed zeros included. The reference is the family-independent Go loop,
// run with the generic family forced; guard elements around every matrix
// must survive untouched. CI runs it for 30 s on every PR:
//
//	go test -fuzz=FuzzElementwise -fuzztime=30s ./internal/tensor/
func FuzzElementwise(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(25), uint8(0), false, []byte{})
	f.Add(int64(2), uint8(9), uint8(50), uint8(3), true, []byte{0xff, 0xf8, 0, 1, 0x7f, 0x80, 0, 0})
	f.Add(int64(3), uint8(0), uint8(100), uint8(1), false, []byte{})
	f.Add(int64(4), uint8(1), uint8(67), uint8(7), true, []byte{0x80, 0, 0, 0})
	f.Add(int64(5), uint8(4), uint8(1), uint8(2), false, []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, urows, uwidth, uoff uint8, single bool, bits []byte) {
		rows, n, off := int(urows)%10, 1+int(uwidth)%67, int(uoff)%8
		if single {
			runElementwiseCase[float32](t, seed, rows, n, off, bits)
		} else {
			runElementwiseCase[float64](t, seed, rows, n, off, bits)
		}
	})
}

// elementwiseBuf is a matrix of rows x cols placed off elements into a
// buffer with guard elements on both sides.
type elementwiseBuf[T Float] struct {
	buf []T
	m   Matrix[T]
}

const elementwiseGuard = 9

func newElementwiseBuf[T Float](next func() T, rows, cols, off int) elementwiseBuf[T] {
	buf := make([]T, off+rows*cols+elementwiseGuard)
	for i := range buf {
		buf[i] = next()
	}
	return elementwiseBuf[T]{buf: buf, m: Matrix[T]{Rows: rows, Cols: cols, Data: buf[off : off+rows*cols]}}
}

func (b elementwiseBuf[T]) clone() elementwiseBuf[T] {
	buf := append([]T(nil), b.buf...)
	off := len(b.buf) - elementwiseGuard - len(b.m.Data)
	return elementwiseBuf[T]{buf: buf, m: Matrix[T]{Rows: b.m.Rows, Cols: b.m.Cols, Data: buf[off : off+len(b.m.Data)]}}
}

func runElementwiseCase[T Float](t *testing.T, seed int64, rows, n, off int, bits []byte) {
	rng := rand.New(rand.NewSource(seed))
	var z T
	es := sizeofT(z)
	// Values come from the fuzzer's bytes while they last, then from a mix
	// of specials, NaNs with arbitrary payloads (where a NaN-NaN pair
	// shows which operand an instruction returns), arbitrary bit patterns
	// and ordinary numbers.
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -1e-310, 1e-40, math.MaxFloat64}
	next := func() T {
		if len(bits) >= es {
			var v T
			if es == 8 {
				v = T(math.Float64frombits(binary.LittleEndian.Uint64(bits)))
			} else {
				*(*float32)(unsafe.Pointer(&v)) = math.Float32frombits(binary.LittleEndian.Uint32(bits))
			}
			bits = bits[es:]
			return v
		}
		switch rng.Intn(5) {
		case 0:
			return T(specials[rng.Intn(len(specials))])
		case 1:
			var v T
			if es == 8 {
				v = T(math.Float64frombits(rng.Uint64() | 0x7ff0000000000001))
			} else {
				*(*float32)(unsafe.Pointer(&v)) = math.Float32frombits(rng.Uint32() | 0x7f800001)
			}
			return v
		case 2:
			var v T
			if es == 8 {
				v = T(math.Float64frombits(rng.Uint64()))
			} else {
				*(*float32)(unsafe.Pointer(&v)) = math.Float32frombits(rng.Uint32())
			}
			return v
		default:
			return T(rng.NormFloat64() * 4)
		}
	}
	// Half-width and full-width operands of every pass: x, y = (x, x) +
	// ..., and a, b, dst of the Hadamard product.
	half, full := newElementwiseBuf(next, rows, n, off), newElementwiseBuf(next, rows, 2*n, (off+3)%8)
	a, b, dst := newElementwiseBuf(next, rows, n, off), newElementwiseBuf(next, rows, n, (off+5)%8), newElementwiseBuf(next, rows, n, (off+1)%8)
	passes := []struct {
		name string
		run  func(x, y, a, b, dst elementwiseBuf[T])
		out  func(x, y, a, b, dst elementwiseBuf[T]) []T
	}{
		{"MulInto", func(_, _, a, b, dst elementwiseBuf[T]) { MulInto(nil, a.m, b.m, dst.m) },
			func(_, _, _, _, dst elementwiseBuf[T]) []T { return dst.buf }},
		{"AddSkipSame", func(x, _, a, _, _ elementwiseBuf[T]) { AddSkipSame(nil, x.m, a.m) },
			func(_, _, a, _, _ elementwiseBuf[T]) []T { return a.buf }},
		{"AddSkipDouble", func(x, y, _, _, _ elementwiseBuf[T]) { AddSkipDouble(nil, x.m, y.m) },
			func(_, y, _, _, _ elementwiseBuf[T]) []T { return y.buf }},
		{"SkipDoubleBackward", func(x, y, _, _, _ elementwiseBuf[T]) { SkipDoubleBackward(nil, y.m, x.m) },
			func(x, _, _, _, _ elementwiseBuf[T]) []T { return x.buf }},
	}
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, p := range passes {
		var want []T
		for _, fam := range simdTestFamilies() {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			x, y, ca, cb, cd := half.clone(), full.clone(), a.clone(), b.clone(), dst.clone()
			p.run(x, y, ca, cb, cd)
			got := p.out(x, y, ca, cb, cd)
			if fam == cpufeat.Generic {
				want = got
				continue
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s %s rows=%d n=%d off=%d: buffer[%d] = %v, Go loop %v", p.name, fam, rows, n, off, i, got[i], want[i])
				}
			}
		}
	}
}

func sameBits[T Float](a, b T) bool {
	switch a := any(a).(type) {
	case float64:
		return math.Float64bits(a) == math.Float64bits(any(b).(float64))
	case float32:
		return math.Float32bits(a) == math.Float32bits(any(b).(float32))
	}
	return false
}
