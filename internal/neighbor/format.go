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

// Formatted is the optimized neighbor table of Fig. 2(d), stored without
// padding: for each of the Nloc atoms, neighbors sorted by type then
// distance, the nearest Sel[t] of each type t kept. Embedding computation
// over it is branch-free: section t of every row holds neighbors of type t
// only, so a section runs through one net.
type Formatted struct {
	Nloc int
	Sel  []int
	// Idx holds the kept neighbor indices, row after row and section after
	// section. Row i has room for min(len(list row i), sum of Sel) indices,
	// so the table is never larger than the list it was formatted from.
	Idx []int32
	// SecOff bounds the sections: section t of atom i is
	// Idx[SecOff[i*(len(Sel)+1)+t] : SecOff[i*(len(Sel)+1)+t+1]]. The room
	// a row does not use (its overflow) lies between its last section and
	// the next row.
	SecOff []int32
	// Overflow counts neighbors dropped because a type section exceeded
	// its Sel capacity; the nearest Sel[t] were kept (Sec. 5.2.1: the
	// distance sort "always selects the nearest neighbors").
	Overflow int
}

// Section returns the kept neighbors of type t of atom i, nearest first.
func (f *Formatted) Section(i, t int) []int32 {
	k := i*(len(f.Sel)+1) + t
	return f.Idx[f.SecOff[k]:f.SecOff[k+1]]
}

// Kept returns the number of neighbors the table holds.
func (f *Formatted) Kept() int {
	n := 0
	for i := 0; i < f.Nloc; i++ {
		row := f.SecOff[i*(len(f.Sel)+1) : (i+1)*(len(f.Sel)+1)]
		n += int(row[len(f.Sel)] - row[0])
	}
	return n
}

// room is how many indices row i has space for.
func (f *Formatted) room(i int) int {
	end := len(f.Idx)
	if i+1 < f.Nloc {
		end = int(f.SecOff[(i+1)*(len(f.Sel)+1)])
	}
	return end - int(f.SecOff[i*(len(f.Sel)+1)])
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

// Begin sizes the formatter's table for the rows of l under spec and
// returns it with Overflow zero and every row still to be written:
// FormatRow fills one row, any number of goroutines may fill distinct rows
// at once (each with its own SortScratch), and whoever collects them adds
// the dropped counts into Overflow. Row i starts where the room of the rows
// before it ends.
func (fm *Formatter) Begin(spec Spec, l *List) *Formatted {
	out := &fm.out
	out.Sel = append(out.Sel[:0], spec.Sel...)
	nt, most := len(spec.Sel), spec.Stride()
	out.Nloc = l.Nloc
	out.SecOff = tensor.Resize(out.SecOff, l.Nloc*(nt+1))
	room := 0
	for i, row := range l.Entries[:l.Nloc] {
		out.SecOff[i*(nt+1)] = int32(room)
		room += min(len(row), most)
	}
	out.Idx = tensor.Resize(out.Idx, room)
	out.Overflow = 0
	return out
}

// Format produces the sorted table from a raw list: Begin, then every row
// through FormatRow on the formatter's own scratch.
func (fm *Formatter) Format(spec Spec, l *List) (*Formatted, error) {
	out := fm.Begin(spec, l)
	for i, nbrs := range l.Entries[:l.Nloc] {
		dropped, err := out.FormatRow(&fm.ws, i, nbrs)
		if err != nil {
			return nil, err
		}
		out.Overflow += dropped
	}
	return out, nil
}

// FormatRow writes row i of the table from atom i's raw neighbors — list
// row i as Begin saw it, or a permutation of it: keys encoded and sorted,
// the nearest Sel[t] of every type placed in section order. It returns how
// many neighbors the full sections dropped. The keys are unique, so the
// table does not depend on the order of nbrs; the sort is fastest when nbrs
// is nearly in key order, as Build leaves it. The row and its section
// bounds are written whole, so a table needs no initialisation and rows
// can be formatted in any order.
//
//dp:noalloc
func (f *Formatted) FormatRow(ws *SortScratch, i int, nbrs []Entry) (dropped int, err error) {
	ntypes := len(f.Sel)
	ws.keys = tensor.Resize(ws.keys, len(nbrs))
	keys := ws.keys[:0]
	for _, e := range nbrs {
		if int(e.Type) >= ntypes {
			return 0, fmt.Errorf("neighbor: type %d exceeds spec with %d types", e.Type, ntypes)
		}
		k, err := Encode(int(e.Type), e.Dist, int(e.Index))
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
	sec := f.SecOff[i*(ntypes+1) : (i+1)*(ntypes+1)]
	if room := f.room(i); len(nbrs) > room && (Spec{Sel: f.Sel}).Stride() > room {
		return 0, fmt.Errorf("neighbor: atom %d has %d neighbors, its row was sized for %d", i, len(nbrs), room)
	}
	ws.fill = tensor.Resize(ws.fill, ntypes)
	fill := ws.fill
	clear(fill)
	at := int(sec[0])
	t := 0
	for _, k := range keys {
		typ, _, j := Decode(k)
		for ; t < typ; t++ {
			sec[t+1] = int32(at)
		}
		if fill[typ] >= f.Sel[typ] {
			dropped++
			continue
		}
		f.Idx[at] = int32(j)
		at++
		fill[typ]++
	}
	for ; t < ntypes; t++ {
		sec[t+1] = int32(at)
	}
	return dropped, nil
}

// FormatBaseline sorts each atom's neighbors with a comparison sort over
// the AoS records (the pre-optimization path: struct compares, no
// compression). It returns the same Formatted table so the downstream
// pipeline is identical; only the sorting machinery differs. This exists
// to measure the compressed-key format's gain in isolation.
func FormatBaseline(spec Spec, l *List) (*Formatted, error) {
	ntypes := len(spec.Sel)
	out := new(Formatter).Begin(spec, l)
	entries := make([]Entry, 0, 256)
	for i, nbrs := range l.Entries[:l.Nloc] {
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
		sec := out.SecOff[i*(ntypes+1) : (i+1)*(ntypes+1)]
		fill := make([]int, ntypes)
		at := int(sec[0])
		for _, e := range entries {
			if int(e.Type) >= ntypes {
				return nil, fmt.Errorf("neighbor: type %d exceeds spec with %d types", e.Type, ntypes)
			}
			if fill[e.Type] >= spec.Sel[e.Type] {
				out.Overflow++
				continue
			}
			out.Idx[at] = e.Index
			at++
			fill[e.Type]++
		}
		for t, n := range fill {
			sec[t+1] = sec[t] + int32(n)
		}
	}
	return out, nil
}
