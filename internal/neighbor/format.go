package neighbor

import (
	"fmt"
	"math"
	"sort"

	"deepmd-go/internal/tensor"
)

// Compression constants of Sec. 5.2.2: the 19 decimal digits of an unsigned
// 64-bit integer are split into 4 digits of type, 10 digits of distance
// (fixed point, 1e-8 A resolution) and 5 digits of atom index:
//
//	key = type*1e15 + floor(dist*1e8)*1e5 + index
const (
	typeFactor = 1_000_000_000_000_000 // 1e15
	distFactor = 100_000               // 1e5 (multiplies floor(dist*1e8))
	distScale  = 100_000_000           // 1e8 fixed-point distance scale
	// MaxType, MaxDist and MaxIndex are the representable ranges; they are
	// "rarely exceeded in typical DeePMD simulations" (Sec. 5.2.2) and
	// Encode reports an error when they are.
	MaxType  = 9999
	MaxDist  = 99.99999999
	MaxIndex = 99_999
)

// Encode packs one neighbor record into a 64-bit key. Sorting keys orders
// records by (type, distance, index).
func Encode(typ int, dist float64, index int) (uint64, error) {
	if typ < 0 || typ > MaxType {
		return 0, fmt.Errorf("neighbor: type %d outside [0, %d]", typ, MaxType)
	}
	if !(dist >= 0 && dist <= MaxDist) { // written so that NaN fails too
		return 0, fmt.Errorf("neighbor: distance %g outside [0, %g]", dist, MaxDist)
	}
	if index < 0 || index > MaxIndex {
		return 0, fmt.Errorf("neighbor: index %d outside [0, %d]", index, MaxIndex)
	}
	return uint64(typ)*typeFactor + uint64(math.Floor(dist*distScale))*distFactor + uint64(index), nil
}

// Decode unpacks a key into (type, quantized distance, index). The distance
// is the fixed-point floor, i.e. Decode(Encode(t, d, j)) returns
// floor(d*1e8)/1e8.
func Decode(key uint64) (typ int, dist float64, index int) {
	typ = int(key / typeFactor)
	rem := key % typeFactor
	dist = float64(rem/distFactor) / distScale
	index = int(rem % distFactor)
	return typ, dist, index
}

// Formatted is the optimized fixed-stride neighbor table of Fig. 2(d):
// for each of the Nloc atoms, neighbors sorted by type then distance, each
// type section padded to Sel[t] with -1. Embedding computation over this
// table is branch-free: slot s always holds a neighbor of type TypeOfSlot(s)
// or padding.
type Formatted struct {
	Nloc   int
	Sel    []int
	SelOff []int // prefix offsets of each type section
	Stride int
	// Idx holds Nloc*Stride neighbor indices, -1 for padding.
	Idx []int32
	// Overflow counts neighbors dropped because a type section exceeded
	// its Sel capacity; the nearest Sel[t] were kept (Sec. 5.2.1: the
	// distance sort "always selects the nearest neighbors").
	Overflow int
}

// TypeOfSlot returns the neighbor type that slot s of every row holds.
func (f *Formatted) TypeOfSlot(s int) int {
	t := sort.SearchInts(f.SelOff[1:], s+1)
	return t
}

// Formatter converts a raw list into the optimized layout by sorting
// compressed 64-bit keys. Scratch buffers — including the returned
// table itself — grow as needed and are reused across calls, so a warmed
// Formatter formats without heap allocation (part of the allocation-free
// MD step); pass a zero-value Formatter for fresh state. The returned
// *Formatted aliases Formatter state and is valid until the next Begin or
// Format call, the same lifetime contract as descriptor.Scratch.
type Formatter struct {
	ws  SortScratch
	out Formatted
}

// SortScratch is one goroutine's reusable state for FormatRow: the encoded
// keys of the row being sorted and the per-type fill counters.
type SortScratch struct {
	keys []uint64
	fill []int
}

// Begin sizes the formatter's table for nloc rows of spec and returns it
// with Overflow zero and every row still to be written: FormatRow fills one
// row, any number of goroutines may fill distinct rows at once (each with
// its own SortScratch), and whoever collects them adds the dropped counts
// into Overflow.
func (fm *Formatter) Begin(spec Spec, nloc int) *Formatted {
	ntypes := len(spec.Sel)
	out := &fm.out
	out.Nloc = nloc
	out.Sel = append(out.Sel[:0], spec.Sel...)
	out.SelOff = tensor.Resize(out.SelOff, ntypes+1)
	out.SelOff[0] = 0
	for t := 0; t < ntypes; t++ {
		out.SelOff[t+1] = out.SelOff[t] + spec.Sel[t]
	}
	out.Stride = out.SelOff[ntypes]
	out.Idx = tensor.Resize(out.Idx, nloc*out.Stride)
	out.Overflow = 0
	return out
}

// Format produces the padded, sorted table from a raw list: Begin, then
// every row through FormatRow on the formatter's own scratch.
func (fm *Formatter) Format(spec Spec, l *List) (*Formatted, error) {
	out := fm.Begin(spec, l.Nloc)
	for i, nbrs := range l.Entries {
		dropped, err := out.FormatRow(&fm.ws, i, nbrs)
		if err != nil {
			return nil, err
		}
		out.Overflow += dropped
	}
	return out, nil
}

// FormatRow writes row i of the table from atom i's raw neighbors: keys
// encoded and sorted, the nearest Sel[t] of every type placed in section
// order and the rest of each section set to -1. It returns how many
// neighbors the full sections dropped. The keys are unique, so the table
// does not depend on the order of nbrs; the sort is fastest when nbrs is
// nearly in key order, as Build leaves it. The row is written whole, so a
// table needs no initialisation and rows can be formatted in any order.
//
//dp:noalloc
func (f *Formatted) FormatRow(ws *SortScratch, i int, nbrs []Entry) (dropped int, err error) {
	ntypes := len(f.Sel)
	ws.keys = tensor.Resize(ws.keys, len(nbrs))
	keys := ws.keys[:0]
	for _, e := range nbrs {
		if e.Type >= ntypes {
			return 0, fmt.Errorf("neighbor: type %d exceeds spec with %d types", e.Type, ntypes)
		}
		k, err := Encode(e.Type, e.Dist, e.Index)
		if err != nil {
			return 0, err
		}
		// Insertion sort as the keys arrive: O(n + inversions), and a row
		// from Build, whose entries have drifted since it sorted them,
		// holds few and only near neighbors.
		a := len(keys)
		keys = append(keys, k)
		for ; a > 0 && keys[a-1] > k; a-- {
			keys[a] = keys[a-1]
		}
		keys[a] = k
	}
	row := f.Idx[i*f.Stride : (i+1)*f.Stride]
	ws.fill = tensor.Resize(ws.fill, ntypes)
	fill := ws.fill
	clear(fill)
	for _, k := range keys {
		t, _, j := Decode(k)
		if fill[t] >= f.Sel[t] {
			dropped++
			continue
		}
		row[f.SelOff[t]+fill[t]] = int32(j)
		fill[t]++
	}
	for t, n := range fill {
		for k := f.SelOff[t] + n; k < f.SelOff[t+1]; k++ {
			row[k] = -1
		}
	}
	return dropped, nil
}

// FormatBaseline sorts each atom's neighbors with a comparison sort over
// the AoS records (the pre-optimization path: struct compares, no
// compression, no padding). It returns the same Formatted table so the
// downstream pipeline is identical; only the sorting machinery differs.
// This exists to measure the compressed-key format's gain in isolation.
func FormatBaseline(spec Spec, l *List) (*Formatted, error) {
	stride := spec.Stride()
	ntypes := len(spec.Sel)
	out := &Formatted{
		Nloc:   l.Nloc,
		Sel:    append([]int(nil), spec.Sel...),
		SelOff: make([]int, ntypes+1),
		Stride: stride,
		Idx:    make([]int32, l.Nloc*stride),
	}
	for t := 0; t < ntypes; t++ {
		out.SelOff[t+1] = out.SelOff[t] + spec.Sel[t]
	}
	for i := range out.Idx {
		out.Idx[i] = -1
	}
	entries := make([]Entry, 0, 256)
	for i, nbrs := range l.Entries {
		entries = append(entries[:0], nbrs...)
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].Type != entries[b].Type {
				return entries[a].Type < entries[b].Type
			}
			if entries[a].Dist != entries[b].Dist {
				return entries[a].Dist < entries[b].Dist
			}
			return entries[a].Index < entries[b].Index
		})
		row := out.Idx[i*stride : (i+1)*stride]
		fill := make([]int, ntypes)
		for _, e := range entries {
			if e.Type >= ntypes {
				return nil, fmt.Errorf("neighbor: type %d exceeds spec with %d types", e.Type, ntypes)
			}
			if fill[e.Type] >= spec.Sel[e.Type] {
				out.Overflow++
				continue
			}
			row[out.SelOff[e.Type]+fill[e.Type]] = int32(e.Index)
			fill[e.Type]++
		}
	}
	return out, nil
}
