package neighbor

import (
	"fmt"
	"math"
	"sort"

	"deepmd-go/internal/tensor"
)

// The sort key of a neighbor inside its type section:
//
//	key = ⌊r·1e8⌋ << 31 | index
//
// The distance, fixed point at 1e-8 Å, fills the high 33 bits and the
// atom index the low 31. Dealt by type first, rows then take the order of
// the paper's decimal key (Sec. 5.2.2) wherever that key exists — index
// < 1e5, type <= 9999 and r < 85.9 Å — without its index ceiling: the
// paper's index counts the atoms of one MPI rank, ours every atom of the
// process.
const (
	distScale  = 1e8
	indexBits  = 31
	indexMask  = 1<<indexBits - 1
	maxQuantum = 1<<(64-indexBits) - 1 // ⌊r·1e8⌋ at r = 85.9 Å
)

// key returns the sort key of neighbor j at distance r: finite, not
// negative. Distances past 85.9 Å, far beyond any cutoff, share the last
// quantum and order by index. The conversion to int64 truncates, which
// is the floor here, in one instruction.
func key(r float64, j int32) uint64 {
	return uint64(int64(min(r*distScale, maxQuantum)))<<indexBits | uint64(j)
}

// item is one neighbor being sorted: its key, distance and type.
type item struct {
	key uint64
	r   float64
	t   int32
}

// rowOrder is the order of a row, by type, then by key: negative when a
// comes first. It is a subtraction and two compares, cheap enough to inline
// into the insertion sorts.
func rowOrder(a, b item) int {
	if a.t != b.t {
		return int(a.t) - int(b.t)
	}
	if a.key < b.key {
		return -1
	}
	if a.key > b.key {
		return 1
	}
	return 0
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

// Formatter converts a raw list into the optimized layout. Scratch
// buffers — including the returned table itself — grow as needed and are
// reused across calls, so a warmed Formatter formats without heap
// allocation (part of the allocation-free MD step); pass a zero-value
// Formatter for fresh state. The returned *Formatted aliases Formatter
// state and is valid until the next Begin or Format call, the same
// lifetime contract as descriptor.Scratch.
type Formatter struct {
	ws  SortScratch
	out Formatted
}

// SortScratch is one goroutine's reusable state for FormatRow: the row
// being sorted.
type SortScratch struct {
	items []item
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

// Format produces the table from a raw list whose rows are in key order,
// as Build leaves them: Begin, then every row dealt into its sections
// through FormatRow on the formatter's own scratch.
func (fm *Formatter) Format(spec Spec, l *List) (*Formatted, error) {
	out := fm.Begin(spec, l)
	for i, nbrs := range l.Entries[:l.Nloc] {
		dropped, err := out.FormatRow(&fm.ws, i, nbrs, nil, l.Types)
		if err != nil {
			return nil, err
		}
		out.Overflow += dropped
	}
	return out, nil
}

// FormatRow writes row i of the table from atom i's raw neighbors nbrs —
// list row i as Begin saw it, or a permutation of it — whose types are
// types[j]: the row sorted by type, then by key at the distances dist
// (dist[k] that of nbrs[k]), and the first Sel[t] of each type kept. The
// keys are unique, so the table does not depend on the order of nbrs; the
// insertion sort is O(n + inversions), fast when nbrs is nearly in key
// order, as Build leaves it. dist[:kept] is then overwritten with the
// kept neighbors' distances in table order, so the caller need not compute
// them again. With dist nil, nbrs must already be in key order and is
// only dealt into its type sections. FormatRow returns how many neighbors
// the full sections dropped. The row and its section bounds are written
// whole, so a table needs no initialisation and rows can be formatted in
// any order.
//
//dp:noalloc
func (f *Formatted) FormatRow(ws *SortScratch, i int, nbrs []int32, dist []float64, types []int32) (dropped int, err error) {
	ntypes := len(f.Sel)
	sec := f.SecOff[i*(ntypes+1) : (i+1)*(ntypes+1)]
	if room := f.room(i); len(nbrs) > room && (Spec{Sel: f.Sel}).Stride() > room {
		return 0, fmt.Errorf("neighbor: atom %d has %d neighbors, its row was sized for %d", i, len(nbrs), room)
	}
	ws.items = tensor.Resize(ws.items, len(nbrs))
	items := ws.items
	for k, j := range nbrs {
		if uint(j) >= uint(len(types)) {
			return 0, fmt.Errorf("neighbor: atom %d lists neighbor %d, outside the %d typed atoms", i, j, len(types))
		}
		// Without distances the arrival position stands in for the
		// distance quantum, which keeps the row's order within a type.
		it := item{key: uint64(k)<<indexBits | uint64(j), t: types[j]}
		if uint32(it.t) >= uint32(ntypes) {
			return 0, fmt.Errorf("neighbor: type %d exceeds spec with %d types", it.t, ntypes)
		}
		if dist != nil {
			it.key, it.r = key(dist[k], j), dist[k]
		}
		// Insertion sort as the items arrive: a row from Build, whose
		// entries have drifted since it sorted them, holds few inversions
		// and only between near neighbors.
		a := k
		for ; a > 0 && rowOrder(items[a-1], it) > 0; a-- {
			items[a] = items[a-1]
		}
		items[a] = it
	}
	at, t, fill := int(sec[0]), 0, 0
	for _, it := range items {
		for ; t < int(it.t); t++ {
			sec[t+1] = int32(at)
			fill = 0
		}
		if fill == f.Sel[t] {
			dropped++
			continue
		}
		if dist != nil {
			dist[at-int(sec[0])] = it.r
		}
		f.Idx[at] = int32(it.key & indexMask)
		at++
		fill++
	}
	for ; t < ntypes; t++ {
		sec[t+1] = int32(at)
	}
	return dropped, nil
}

// FormatBaseline is the pre-optimization path: each atom's neighbors become
// freshly allocated array-of-structures {dist, index, type} records at the
// distances of pos (the structure of Fig. 2(c)), ordered by a comparison
// sort over struct compares, no keys, and are then dealt into the same
// Formatted table, so the downstream pipeline is identical and only the
// sorting machinery differs. This exists to measure the key format's gain
// in isolation. box is as for Build; a neighbor index outside pos or the
// list's types is an error.
func FormatBaseline(spec Spec, l *List, pos []float64, box *Box) (*Formatted, error) {
	type record struct {
		dist  float64
		index int32
		typ   int32
	}
	var fm Formatter
	out := fm.Begin(spec, l)
	nall := min(len(pos)/3, len(l.Types))
	for i, nbrs := range l.Entries[:l.Nloc] {
		recs := make([]record, 0, len(nbrs))
		for _, j := range nbrs {
			if uint(j) >= uint(nall) {
				return nil, fmt.Errorf("neighbor: atom %d lists neighbor %d, outside the %d atoms", i, j, nall)
			}
			d := Displacement(pos, i, int(j), box)
			recs = append(recs, record{math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2]), j, l.Types[j]})
		}
		sort.Slice(recs, func(a, b int) bool {
			if recs[a].typ != recs[b].typ {
				return recs[a].typ < recs[b].typ
			}
			if recs[a].dist != recs[b].dist {
				return recs[a].dist < recs[b].dist
			}
			return recs[a].index < recs[b].index
		})
		row := make([]int32, len(recs))
		for k, e := range recs {
			row[k] = e.index
		}
		dropped, err := out.FormatRow(&fm.ws, i, row, nil, l.Types)
		if err != nil {
			return nil, err
		}
		out.Overflow += dropped
	}
	return out, nil
}
