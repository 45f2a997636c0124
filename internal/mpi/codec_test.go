package mpi

import (
	"bytes"
	"testing"
)

// Arbitrary (kind, bytes) through the wire decoder a peer's frames reach:
// it never panics, and every payload it accepts re-encodes to exactly the
// bytes it came from, under the same kind.
func FuzzDecodePayload(f *testing.F) {
	f.Add(kindFloat64s, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(kindFloat64s, []byte{1, 0, 0xc0, 0x7f, 0, 0, 0x80})
	f.Add(kindInt64s, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(kindInt64s, []byte{})
	f.Add(kindBytes, []byte("hello"))
	f.Add(kindBytes, []byte{})
	f.Add(kindHello, []byte{})
	// Kinds the wire no longer carries ([]float32, []int32, float64 and
	// the first registered-codec kind) are rejected.
	f.Add(byte(2), []byte{9, 8, 7, 6})
	f.Add(byte(5), []byte{9, 8, 7, 6})
	f.Add(byte(9), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(byte(64), []byte{0})
	f.Fuzz(func(t *testing.T, kind byte, raw []byte) {
		v, err := decodePayload(kind, raw)
		if err != nil {
			return
		}
		frame := encodeFrame(nil, 0, v)
		if frame[4] != kind {
			t.Fatalf("kind 0x%02x decoded to %T, which encodes as kind 0x%02x", kind, v, frame[4])
		}
		if got := frame[frameHeaderSize:]; !bytes.Equal(got, raw) {
			t.Fatalf("kind 0x%02x: %x decoded to %v, re-encoded as %x", kind, raw, v, got)
		}
		if _, n := payloadKind(v); n != len(raw) {
			t.Fatalf("kind 0x%02x: payloadKind size %d for %d encoded bytes", kind, n, len(raw))
		}
	})
}
