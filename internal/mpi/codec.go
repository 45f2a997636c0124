package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Wire codec: every payload that crosses a Comm — in-process or TCP — has
// one exact binary encoding. The in-process transport never serializes,
// but it uses the same size accounting, so World.Bytes() reports the same
// communication volume the TCP transport actually frames (the reconcile
// test in internal/domain holds the two to each other). Messages are
// length-prefixed: a fixed 9-byte header [u32 payload length][u8 kind]
// [u32 tag] followed by the payload bytes, little-endian throughout.

// frameHeaderSize is the fixed per-message framing overhead on the wire:
// u32 payload length + u8 kind + u32 tag.
const frameHeaderSize = 9

// FrameOverhead is frameHeaderSize for callers outside the package:
// the per-message wire overhead on top of the exact payload bytes, so
// WireBytes == Bytes + FrameOverhead×Messages on any transport.
const FrameOverhead = frameHeaderSize

// Payload kind bytes. Application types registered via RegisterPayload
// are assigned kinds from kindRegistered upward in registration order,
// which is deterministic because registration happens in package inits of
// the same binary on every rank.
const (
	kindFloat64s byte = iota + 1
	kindFloat32s
	kindInts
	kindInt64s
	kindInt32s
	kindBytes
	kindInt
	kindInt64
	kindFloat64

	// Transport-internal frames (never surfaced as payloads).
	kindHello // mesh handshake: tag carries the dialer's rank
	kindBye   // graceful close: no more frames from this peer

	kindRegistered byte = 64
)

// PayloadCodec describes the wire format of one application payload type
// (e.g. domain's atom bundle). Size must return exactly len(Append(nil, p))
// — World.Bytes() is counted from Size, and the TCP transport asserts the
// equality by construction since it frames what Append produces.
type PayloadCodec struct {
	// Name appears in decode errors.
	Name string
	// Size returns the exact encoded payload size in bytes.
	Size func(p any) int
	// Append appends the encoded payload to dst and returns it.
	Append func(dst []byte, p any) []byte
	// Decode parses an encoded payload (the inverse of Append).
	Decode func(b []byte) (any, error)
	// Clone deep-copies a payload so collectives can hand every recipient
	// its own copy, and a TCP rank's send to itself keeps wire value
	// semantics.
	Clone func(p any) any
}

var (
	codecByType = map[reflect.Type]registeredCodec{}
	codecByKind = map[byte]PayloadCodec{}
)

type registeredCodec struct {
	kind byte
	c    PayloadCodec
}

// RegisterPayload registers the wire codec for the concrete type of
// example. Registration order assigns the kind byte, so it must happen in
// package init (same order in every process of the same binary). Panics on
// duplicate registration or an incomplete codec.
func RegisterPayload(example any, c PayloadCodec) {
	t := reflect.TypeOf(example)
	if _, dup := codecByType[t]; dup {
		panic(fmt.Sprintf("mpi: payload codec for %v already registered", t))
	}
	if c.Size == nil || c.Append == nil || c.Decode == nil || c.Clone == nil {
		panic(fmt.Sprintf("mpi: incomplete payload codec %q", c.Name))
	}
	kind := kindRegistered + byte(len(codecByKind))
	codecByType[t] = registeredCodec{kind: kind, c: c}
	codecByKind[kind] = c
}

// payloadBytes returns the exact encoded payload size (excluding the
// 9-byte frame header). Unknown types panic: they could not cross the TCP
// transport, and a silent flat estimate would corrupt the communication-
// volume accounting the benchmarks report.
func payloadBytes(p any) int64 {
	switch v := p.(type) {
	case []float64:
		return int64(8 * len(v))
	case []float32:
		return int64(4 * len(v))
	case []int:
		return int64(8 * len(v))
	case []int64:
		return int64(8 * len(v))
	case []int32:
		return int64(4 * len(v))
	case []byte:
		return int64(len(v))
	case int, int64, float64:
		return 8
	default:
		if rc, ok := codecByType[reflect.TypeOf(p)]; ok {
			return int64(rc.c.Size(p))
		}
		panic(fmt.Sprintf("mpi: no payload codec for %T", p))
	}
}

// clonePayload deep-copies a payload so a collective can hand each
// recipient an isolated copy (wire-transport value semantics).
func clonePayload(p any) any {
	switch v := p.(type) {
	case []float64:
		return append([]float64(nil), v...)
	case []float32:
		return append([]float32(nil), v...)
	case []int:
		return append([]int(nil), v...)
	case []int64:
		return append([]int64(nil), v...)
	case []int32:
		return append([]int32(nil), v...)
	case []byte:
		return append([]byte(nil), v...)
	case int, int64, float64:
		return v
	default:
		if rc, ok := codecByType[reflect.TypeOf(p)]; ok {
			return rc.c.Clone(p)
		}
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
	case []float32:
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
	case []int:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []int64:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []int32:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	case []byte:
		dst = append(dst, v...)
	case int:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	case int64:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	case float64:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	default:
		dst = codecByType[reflect.TypeOf(p)].c.Append(dst, p)
	}
	return dst
}

// payloadKind returns the kind byte and exact encoded size of a payload.
func payloadKind(p any) (byte, int) {
	switch v := p.(type) {
	case []float64:
		return kindFloat64s, 8 * len(v)
	case []float32:
		return kindFloat32s, 4 * len(v)
	case []int:
		return kindInts, 8 * len(v)
	case []int64:
		return kindInt64s, 8 * len(v)
	case []int32:
		return kindInt32s, 4 * len(v)
	case []byte:
		return kindBytes, len(v)
	case int:
		return kindInt, 8
	case int64:
		return kindInt64, 8
	case float64:
		return kindFloat64, 8
	default:
		if rc, ok := codecByType[reflect.TypeOf(p)]; ok {
			return rc.kind, rc.c.Size(p)
		}
		panic(fmt.Sprintf("mpi: no payload codec for %T", p))
	}
}

func appendHeader(dst []byte, size int, kind byte, tag int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(tag))
	return dst
}

// decodePayload parses one payload of the given kind.
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
	case kindFloat32s:
		if len(b)%4 != 0 {
			return nil, fmt.Errorf("mpi: float32 slice payload %d bytes", len(b))
		}
		v := make([]float32, len(b)/4)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return v, nil
	case kindInts:
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("mpi: int slice payload %d bytes", len(b))
		}
		v := make([]int, len(b)/8)
		for i := range v {
			v[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
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
	case kindInt32s:
		if len(b)%4 != 0 {
			return nil, fmt.Errorf("mpi: int32 slice payload %d bytes", len(b))
		}
		v := make([]int32, len(b)/4)
		for i := range v {
			v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return v, nil
	case kindBytes:
		return append([]byte(nil), b...), nil
	case kindInt:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: int payload %d bytes", len(b))
		}
		return int(binary.LittleEndian.Uint64(b)), nil
	case kindInt64:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: int64 payload %d bytes", len(b))
		}
		return int64(binary.LittleEndian.Uint64(b)), nil
	case kindFloat64:
		if len(b) != 8 {
			return nil, fmt.Errorf("mpi: float64 payload %d bytes", len(b))
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	default:
		if c, ok := codecByKind[kind]; ok {
			return c.Decode(b)
		}
		return nil, fmt.Errorf("mpi: unknown payload kind 0x%02x", kind)
	}
}
