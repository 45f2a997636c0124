package domain

import (
	"encoding/binary"
	"fmt"
	"math"
)

// atomBundle is the payload for migration and border sends, and for the
// baseline setup's distribution of the built system. It crosses a Comm as
// the byte payload encodeBundle builds: four u32 element counts followed
// by the flattened fields, little-endian:
//
//	[u32 nPos][u32 nVel][u32 nTyp][u32 nGid]
//	nPos × f64 | nVel × f64 | nTyp × u64 | nGid × u64
//
// The encoded length is what World.Bytes() counts, so a bundle accounts
// for every pos, vel, type and global-id word it actually carries.
type atomBundle struct {
	Pos []float64
	Vel []float64 // empty for border and setup sends
	Typ []int
	Gid []int64 // empty for setup sends
}

// encodeBundle returns b's wire encoding.
func encodeBundle(b atomBundle) []byte {
	dst := make([]byte, 0, 16+8*(len(b.Pos)+len(b.Vel)+len(b.Typ)+len(b.Gid)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Pos)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Vel)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Typ)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Gid)))
	for _, f := range b.Pos {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	for _, f := range b.Vel {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	for _, t := range b.Typ {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
	}
	for _, g := range b.Gid {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(g))
	}
	return dst
}

// decodeBundle parses an encodeBundle payload. The counts are checked
// against the payload length before anything is allocated, so a peer's
// claim can never size an allocation beyond the bytes that arrived.
func decodeBundle(raw []byte) (atomBundle, error) {
	var b atomBundle
	if len(raw) < 16 {
		return b, fmt.Errorf("domain: atom bundle %d bytes", len(raw))
	}
	var n [4]uint32
	words := uint64(0)
	for k := range n {
		n[k] = binary.LittleEndian.Uint32(raw[4*k:])
		words += uint64(n[k])
	}
	if uint64(len(raw)) != 16+8*words {
		return b, fmt.Errorf("domain: atom bundle %d bytes for counts %d/%d/%d/%d", len(raw), n[0], n[1], n[2], n[3])
	}
	next := func() uint64 {
		w := binary.LittleEndian.Uint64(raw)
		raw = raw[8:]
		return w
	}
	raw = raw[16:]
	if n[0] > 0 {
		b.Pos = make([]float64, n[0])
		for i := range b.Pos {
			b.Pos[i] = math.Float64frombits(next())
		}
	}
	if n[1] > 0 {
		b.Vel = make([]float64, n[1])
		for i := range b.Vel {
			b.Vel[i] = math.Float64frombits(next())
		}
	}
	if n[2] > 0 {
		b.Typ = make([]int, n[2])
		for i := range b.Typ {
			b.Typ[i] = int(next())
		}
	}
	if n[3] > 0 {
		b.Gid = make([]int64, n[3])
		for i := range b.Gid {
			b.Gid[i] = int64(next())
		}
	}
	return b, nil
}
