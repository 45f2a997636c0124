package domain

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// Arbitrary bytes through the atom-bundle decoder a peer's migration,
// border and setup payloads reach: decoding never panics and a bundle it
// accepts re-encodes to the same bytes. A bundle built from the same bytes (split
// into pos/vel/typ/gid words at the fuzzed counts) survives
// decode(encode(b)) bit for bit.
func FuzzAtomBundleDecode(f *testing.F) {
	seed := encodeBundle(atomBundle{Pos: []float64{1, 2, 3}, Typ: []int{1}, Gid: []int64{7}})
	f.Add(seed, uint8(3), uint8(0), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add(make([]byte, 16), uint8(1), uint8(1), uint8(1))
	f.Add(setupCrashPayload(), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, nPos, nVel, nTyp uint8) {
		if v, err := decodeBundle(raw); err == nil {
			if got := encodeBundle(v); !bytes.Equal(got, raw) {
				t.Fatalf("%x decoded to %+v, re-encoded as %x", raw, v, got)
			}
		}

		words := make([]uint64, len(raw)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		take := func(n int) []uint64 {
			n = min(n, len(words))
			w := words[:n]
			words = words[n:]
			return w
		}
		var b atomBundle
		for _, w := range take(int(nPos)) {
			b.Pos = append(b.Pos, math.Float64frombits(w))
		}
		for _, w := range take(int(nVel)) {
			b.Vel = append(b.Vel, math.Float64frombits(w))
		}
		for _, w := range take(int(nTyp)) {
			b.Typ = append(b.Typ, int(w))
		}
		for _, w := range words {
			b.Gid = append(b.Gid, int64(w))
		}
		enc := encodeBundle(b)
		if want := 16 + 8*(len(b.Pos)+len(b.Vel)+len(b.Typ)+len(b.Gid)); len(enc) != want {
			t.Fatalf("encoded %d bytes, want %d", len(enc), want)
		}
		got, err := decodeBundle(enc)
		if err != nil {
			t.Fatalf("decoding an encoded bundle: %v", err)
		}
		sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		if !slices.EqualFunc(got.Pos, b.Pos, sameBits) || !slices.EqualFunc(got.Vel, b.Vel, sameBits) ||
			!slices.Equal(got.Typ, b.Typ) || !slices.Equal(got.Gid, b.Gid) {
			t.Fatalf("decode(encode(%+v)) = %+v", b, got)
		}
	})
}
