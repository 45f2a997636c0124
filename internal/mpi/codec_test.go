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
	f.Add(kindFloat32s, []byte{1, 0, 0xc0, 0x7f, 0, 0, 0x80})
	f.Add(kindInts, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(kindInt64s, []byte{})
	f.Add(kindInt32s, []byte{9, 8, 7, 6})
	f.Add(kindBytes, []byte("hello"))
	f.Add(kindInt, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(kindInt64, []byte{1, 2, 3})
	f.Add(kindFloat64, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(kindHello, []byte{})
	f.Add(kindRegistered, []byte{0})
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
		if n := payloadBytes(v); n != int64(len(raw)) {
			t.Fatalf("kind 0x%02x: payloadBytes %d for %d encoded bytes", kind, n, len(raw))
		}
	})
}
