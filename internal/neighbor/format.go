package neighbor

import (
	"fmt"
	"math"
	"sort"

	"deepmd-go/internal/tensor"
)

// The sort key of a neighbor inside a type section that holds more
// neighbors inside the cutoff than its Sel, the one place a row is ordered
// by distance:
//
//	key = ⌊r·1e8⌋ << 31 | index
//
// The distance, fixed point at 1e-8 Å, fills the high 33 bits and the
// atom index the low 31. Within a type it orders neighbors as the paper's
// decimal key (Sec. 5.2.2) does wherever that key exists — index < 1e5,
// type <= 9999 and r < 85.9 Å — without its index ceiling: the paper's
// index counts the atoms of one MPI rank, ours every atom of the process.
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

// item is one neighbor being ordered: its key and distance. A row's items
// carry type << 32 | index (type << 32 | arrival position without
// distances); an overflowing section's carry key(r, index). Either way the
// index, or the position, is the low 31 bits.
type item struct {
	key uint64
	r   float64
}

// sortItems sorts items by key in place: a heap sort, O(n log n) however
// the items arrive, allocation-free. Keys are unique, so the order is
// total.
func sortItems(items []item) {
	n := len(items)
	for k := n/2 - 1; k >= 0; k-- {
		siftDown(items, k, n)
	}
	for end := n - 1; end > 0; end-- {
		items[0], items[end] = items[end], items[0]
		siftDown(items, 0, end)
	}
}

// siftDown restores the max-heap property of items[:n] below root.
func siftDown(items []item, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && items[c+1].key > items[c].key {
			c++
		}
		if items[root].key >= items[c].key {
			return
		}
		items[root], items[c] = items[c], items[root]
		root = c
	}
}

// Formatted is the optimized neighbor table of Fig. 2(d), stored without
// padding: for each of the Nloc atoms, its neighbors dealt into type
// sections, at most Sel[t] of type t. Embedding computation over it is
// branch-free: section t of every row holds neighbors of type t only, so a
// section runs through one net. A section formatted with distances (the
// per-step format, FormatRow) holds its neighbors inside the cutoff first,
// in index order, then those past it, in index order, up to Sel[t]; only a
// section with more than Sel[t] neighbors inside the cutoff is sorted by
// distance, and keeps its nearest Sel[t] (Sec. 5.2.1), nearest first.
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
	// its Sel capacity. A dropped neighbor lies past the cutoff unless the
	// section holds more than Sel[t] inside it; then the nearest Sel[t]
	// were kept (Sec. 5.2.1: the distance sort "always selects the nearest
	// neighbors").
	Overflow int
	rcut     float64 // the spec's Rcut: FormatRow's partition
}

// Section returns the kept neighbors of type t of atom i.
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

// SortScratch is one goroutine's reusable state for FormatRow: a row that
// arrives out of order, sorted; its section bounds; and one section in
// the order it is kept.
type SortScratch struct {
	items []item
	idx   []int32
	r     []float64
	bound []int
	kj    []int32
	kr    []float64
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
	out.rcut = spec.Rcut
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

// Format produces the table from a raw list without positions: Begin, then
// every row dealt into its type sections through FormatRow on the
// formatter's own scratch, each section's entries in the order the row
// gives them and the first Sel[t] kept. On Build's rows that is index
// order, and a full section drops its highest indices, not its farthest
// neighbors: the per-step format, which has the distances, is FormatRow's.
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
// types[j], at the distances dist (dist[k] that of nbrs[k]). The row is
// first put in (type, index) order: Build's rows are in it, which one pass
// checks, and any other arrival order is sorted, so the table does not
// depend on it. Each type's section then takes the neighbors inside the
// spec's Rcut, then those past it, up to Sel[t]; a section with more than
// Sel[t] inside the cutoff is sorted by key instead and keeps its nearest
// Sel[t], the one place the format sorts by distance. A neighbor
// coincident with atom i (r = 0) leads its section, as it would in key
// order. dist[:kept] is then overwritten with the kept neighbors'
// distances in table order, so the caller need not compute them again.
// With dist nil, each type's neighbors are kept in the order nbrs gives
// them. FormatRow returns how many neighbors the full sections dropped.
// The row and its section bounds are written whole, so a table needs no
// initialisation and rows can be formatted in any order.
//
//dp:noalloc
func (f *Formatted) FormatRow(ws *SortScratch, i int, nbrs []int32, dist []float64, types []int32) (dropped int, err error) {
	ntypes := len(f.Sel)
	sec := f.SecOff[i*(ntypes+1) : (i+1)*(ntypes+1)]
	if room := f.room(i); len(nbrs) > room && (Spec{Sel: f.Sel}).Stride() > room {
		return 0, fmt.Errorf("neighbor: atom %d has %d neighbors, its row was sized for %d", i, len(nbrs), room)
	}
	// One pass checks every entry, whether the row is already in table
	// order — by (type, index) with distances, by type without — and where
	// each type's section starts if it is.
	ws.bound = tensor.Resize(ws.bound, ntypes+1)
	bound := ws.bound
	ordered, prev, next := true, int64(-1), 0
	for k, j := range nbrs {
		if uint(j) >= uint(len(types)) {
			return 0, fmt.Errorf("neighbor: atom %d lists neighbor %d, outside the %d typed atoms", i, j, len(types))
		}
		t := types[j]
		if uint32(t) >= uint32(ntypes) {
			return 0, fmt.Errorf("neighbor: type %d exceeds spec with %d types", t, ntypes)
		}
		key := int64(t)<<32 | int64(j)
		if dist == nil {
			key = int64(t)<<32 | int64(k)
		}
		ordered = ordered && key > prev
		prev = key
		for ; next <= int(t); next++ {
			bound[next] = k
		}
	}
	for ; next <= ntypes; next++ {
		bound[next] = len(nbrs)
	}
	idx, r := nbrs, dist
	if !ordered {
		idx, r = ws.sortRow(nbrs, dist, types, ntypes)
	}
	base, at := int(sec[0]), int(sec[0])
	for t := 0; t < ntypes; t++ {
		lo, hi := bound[t], bound[t+1]
		keep := min(hi-lo, f.Sel[t])
		dropped += hi - lo - keep
		if dist == nil {
			copy(f.Idx[at:at+keep], idx[lo:lo+keep])
		} else {
			// The section's entries are read before any is written, and
			// the kept ones land at or before them in dist.
			kj, kr := f.partition(ws, idx[lo:hi], r[lo:hi], f.Sel[t])
			copy(f.Idx[at:at+keep], kj[:keep])
			copy(dist[at-base:at-base+keep], kr[:keep])
		}
		at += keep
		sec[t+1] = int32(at)
	}
	return dropped, nil
}

// sortRow puts a row that arrived out of table order in it, in ws.idx and,
// with distances, ws.r, and sets ws.bound to its section starts: by (type,
// index) with distances, by (type, arrival) without, which is a stable deal
// by type.
//
//dp:noalloc
func (ws *SortScratch) sortRow(nbrs []int32, dist []float64, types []int32, ntypes int) ([]int32, []float64) {
	n := len(nbrs)
	ws.items = tensor.Resize(ws.items, n)
	ws.idx = tensor.Resize(ws.idx, n)
	for k, j := range nbrs {
		it := item{key: uint64(types[j])<<32 | uint64(k)}
		if dist != nil {
			it = item{uint64(types[j])<<32 | uint64(j), dist[k]}
		}
		ws.items[k] = it
	}
	sortItems(ws.items)
	if dist != nil {
		ws.r = tensor.Resize(ws.r, n)
	}
	next := 0
	for k, it := range ws.items {
		if dist != nil {
			ws.idx[k], ws.r[k] = int32(it.key&indexMask), it.r
		} else {
			ws.idx[k] = nbrs[it.key&indexMask]
		}
		for ; next <= int(it.key>>32); next++ {
			ws.bound[next] = k
		}
	}
	for ; next <= ntypes; next++ {
		ws.bound[next] = n
	}
	if dist == nil {
		return ws.idx, nil
	}
	return ws.idx, ws.r
}

// partition returns one section's neighbors idx at distances r in the
// order the table keeps them: those inside the cutoff, then those past it,
// each run in the order given; or, when more than sel lie inside the
// cutoff, those sorted by key. Either way coincident neighbors (r = 0) lead,
// as in key order, where only a neighbor within 1e-8 Å of the center could
// share their quantum. A count of the neighbors inside places the two runs,
// and every neighbor is then written to the next slot of its run, picked
// without a branch on its distance.
//
//dp:noalloc
func (f *Formatted) partition(ws *SortScratch, idx []int32, r []float64, sel int) ([]int32, []float64) {
	n := len(idx)
	ws.kj = tensor.Resize(ws.kj, n)
	ws.kr = tensor.Resize(ws.kr, n)
	kj, kr := ws.kj[:n], ws.kr[:n]
	in, zeros := 0, 0
	for _, x := range r {
		in += b2i(x < f.rcut)
		zeros += b2i(x == 0)
	}
	if in > sel {
		ws.items = tensor.Resize(ws.items, in)
		m := 0
		for k, x := range r {
			if x < f.rcut {
				ws.items[m] = item{key(x, idx[k]), x}
				m++
			}
		}
		sortItems(ws.items)
		for k, it := range ws.items {
			kj[k], kr[k] = int32(it.key&indexMask), it.r
		}
	} else {
		p, q := 0, in
		for k, x := range r {
			c := b2i(x < f.rcut)
			at := q
			if c == 1 {
				at = p
			}
			kj[at], kr[at] = idx[k], x
			p += c
			q += 1 - c
		}
	}
	if zeros > 0 {
		z := 0
		for k := 0; k < in; k++ {
			if j, x := kj[k], kr[k]; x == 0 {
				copy(kj[z+1:k+1], kj[z:k])
				copy(kr[z+1:k+1], kr[z:k])
				kj[z], kr[z] = j, x
				z++
			}
		}
	}
	return kj, kr
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
