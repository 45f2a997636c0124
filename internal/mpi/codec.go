package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire codec: every payload that crosses a Comm — in-process or TCP — has
// one exact binary encoding. The rank protocol moves three things
// (float64 vectors, int64 global ids and byte blobs such as the domain
// layer's atom bundles and the staged model), so there are three payload
// kinds. The in-process transport never serializes, but it uses the same
// size accounting, so World.Bytes() reports the same communication volume
// the TCP transport actually frames (the reconcile test in internal/domain
// holds the two to each other). Messages are length-prefixed: a fixed
// 9-byte header [u32 payload length][u8 kind][u32 tag] followed by the
// payload bytes, little-endian throughout.

// frameHeaderSize is the fixed per-message framing overhead on the wire:
// u32 payload length + u8 kind + u32 tag.
const frameHeaderSize = 9

// FrameOverhead is frameHeaderSize for callers outside the package:
// the per-message wire overhead on top of the exact payload bytes, so
// WireBytes == Bytes + FrameOverhead×Messages on any transport.
const FrameOverhead = frameHeaderSize

// Kind bytes on the wire.
const (
	kindFloat64s byte = 1
	kindInt64s   byte = 4
	kindBytes    byte = 6

	// Transport-internal frames (never surfaced as payloads).
	kindHello byte = 10 // mesh handshake: tag carries the dialer's rank
	kindBye   byte = 11 // graceful close: no more frames from this peer
)

// payloadKind returns the kind byte and exact encoded size (excluding the
// 9-byte frame header) of a payload. Any other type panics: it could not
// cross the TCP transport, and a silent flat estimate would corrupt the
// communication-volume accounting the benchmarks report.
func payloadKind(p any) (byte, int) {
	switch v := p.(type) {
	case []float64:
		return kindFloat64s, 8 * len(v)
	case []int64:
		return kindInt64s, 8 * len(v)
	case []byte:
		return kindBytes, len(v)
	default:
		panic(fmt.Sprintf("mpi: no payload codec for %T", p))
	}
}

// clonePayload deep-copies a payload so a collective can hand each
// recipient an isolated copy (wire-transport value semantics).
func clonePayload(p any) any {
	switch v := p.(type) {
	case []float64:
		return append([]float64(nil), v...)
	case []int64:
		return append([]int64(nil), v...)
	case []byte:
		return append([]byte(nil), v...)
	default:
		panic(fmt.Sprintf("mpi: no payload codec for %T", p))
	}
}

// encodeFrame appends a complete frame (header + payload) for the message
// to dst and returns it.
func encodeFrame(dst []byte, tag int, p any) []byte {
	kind, size := payloadKind(p)
	dst = appendHeader(dst, size, kind, tag)
	switch v := p.(type) {
	case []float64:
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	case []int64:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []byte:
		dst = append(dst, v...)
	}
	return dst
}

func appendHeader(dst []byte, size int, kind byte, tag int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(tag))
	return dst
}

// decodePayload parses one payload of the given kind. A []byte payload is
// b itself: readFrame allocates every frame's buffer afresh.
func decodePayload(kind byte, b []byte) (any, error) {
	switch kind {
	case kindFloat64s:
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("mpi: float64 slice payload %d bytes", len(b))
		}
		v := make([]float64, len(b)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return v, nil
	case kindInt64s:
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("mpi: int64 slice payload %d bytes", len(b))
		}
		v := make([]int64, len(b)/8)
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return v, nil
	case kindBytes:
		return b, nil
	default:
		return nil, fmt.Errorf("mpi: unknown payload kind 0x%02x", kind)
	}
}
