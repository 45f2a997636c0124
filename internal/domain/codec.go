package domain

import (
	"encoding/binary"
	"fmt"
	"math"

	"deepmd-go/internal/mpi"
)

// Wire codec for atomBundle, the migration/border payload. Registered in
// package init so the kind byte is assigned identically in every process
// of the same binary. The encoding is four u32 element counts followed by
// the flattened fields, little-endian:
//
//	[u32 nPos][u32 nVel][u32 nTyp][u32 nGid]
//	nPos × f64 | nVel × f64 | nTyp × u64 | nGid × u64
//
// Size is exact — this is what fixes the flat per-bundle estimate that
// made World.Bytes() undercount the dominant migrate/border traffic by
// orders of magnitude (ISSUE 9): a bundle now accounts for every pos,
// vel, type and global-id word it actually carries.
func init() { mpi.RegisterPayload(atomBundle{}, bundleCodec) }

var bundleCodec = mpi.PayloadCodec{
	Name: "domain.atomBundle",
	Size: func(p any) int {
		b := p.(atomBundle)
		return 16 + 8*(len(b.Pos)+len(b.Vel)+len(b.Typ)+len(b.Gid))
	},
	Append: func(dst []byte, p any) []byte {
		b := p.(atomBundle)
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
	},
	Decode: func(raw []byte) (any, error) {
		if len(raw) < 16 {
			return nil, fmt.Errorf("atomBundle payload %d bytes", len(raw))
		}
		nPos := int(binary.LittleEndian.Uint32(raw[0:]))
		nVel := int(binary.LittleEndian.Uint32(raw[4:]))
		nTyp := int(binary.LittleEndian.Uint32(raw[8:]))
		nGid := int(binary.LittleEndian.Uint32(raw[12:]))
		if len(raw) != 16+8*(nPos+nVel+nTyp+nGid) {
			return nil, fmt.Errorf("atomBundle payload %d bytes for counts %d/%d/%d/%d", len(raw), nPos, nVel, nTyp, nGid)
		}
		var b atomBundle
		off := 16
		if nPos > 0 {
			b.Pos = make([]float64, nPos)
			for i := range b.Pos {
				b.Pos[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
				off += 8
			}
		}
		if nVel > 0 {
			b.Vel = make([]float64, nVel)
			for i := range b.Vel {
				b.Vel[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
				off += 8
			}
		}
		if nTyp > 0 {
			b.Typ = make([]int, nTyp)
			for i := range b.Typ {
				b.Typ[i] = int(binary.LittleEndian.Uint64(raw[off:]))
				off += 8
			}
		}
		if nGid > 0 {
			b.Gid = make([]int64, nGid)
			for i := range b.Gid {
				b.Gid[i] = int64(binary.LittleEndian.Uint64(raw[off:]))
				off += 8
			}
		}
		return b, nil
	},
	Clone: func(p any) any {
		b := p.(atomBundle)
		return atomBundle{
			Pos: append([]float64(nil), b.Pos...),
			Vel: append([]float64(nil), b.Vel...),
			Typ: append([]int(nil), b.Typ...),
			Gid: append([]int64(nil), b.Gid...),
		}
	},
}
