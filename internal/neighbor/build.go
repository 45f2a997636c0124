package neighbor

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"deepmd-go/internal/tensor"
)

// minBlock is the number of rows one worker must have before Build starts
// it: below it a goroutine costs more than it saves.
const minBlock = 256

// rowBlock is how many rows a worker claims at a time. It is small because
// the all-pairs scan visits nall-1-i candidates for row i: claimed in small
// blocks, in order, the triangle still splits evenly over the workers.
const rowBlock = 16

// ErrNonFinite is wrapped by the error Build returns for a NaN or infinite
// position or box edge, which would otherwise leave an atom without
// neighbors or an axis without periodic images, silently.
var ErrNonFinite = errors.New("non-finite geometry")

// Build constructs the raw neighbor list for the first nloc atoms among the
// nall positions (3*nall floats, xyz per atom), using up to workers
// goroutines. workers <= 1 runs serially; the output is bit-identical for
// every worker count. If box is non-nil, distances use the minimum image
// convention (serial periodic mode, which requires every box edge >=
// 2*(Rcut+Skin)); if box is nil, displacements are taken directly, which is
// the domain-decomposed mode where positions already include ghost images.
// A non-finite position is an error naming the first such atom, a
// non-finite box edge one naming its axis; both wrap ErrNonFinite.
//
// Build makes three passes over the rows. The scan finds each row's
// neighbors and keeps only their indices; the fill computes each distance
// again and writes the entries into one arena of exactly the list's size;
// the sort puts each row in the order List documents. In the all-pairs
// regime the scan visits each pair i < j once and the fill writes it to
// both rows.
func Build(spec Spec, pos []float64, types []int, nloc int, box *Box, workers int) (*List, error) {
	nall := len(pos) / 3
	if len(types) != nall {
		return nil, fmt.Errorf("neighbor: %d types for %d atoms", len(types), nall)
	}
	if nloc > nall {
		return nil, fmt.Errorf("neighbor: nloc %d > nall %d", nloc, nall)
	}
	if nall > math.MaxInt32 {
		return nil, fmt.Errorf("neighbor: %d atoms exceed the int32 index range", nall)
	}
	for a, x := range pos[:3*nall] {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			i := a / 3
			return nil, fmt.Errorf("neighbor: atom %d position (%g, %g, %g): %w", i, pos[3*i], pos[3*i+1], pos[3*i+2], ErrNonFinite)
		}
	}
	rc := spec.RcutBuild()
	if box != nil {
		for k := 0; k < 3; k++ {
			if math.IsNaN(box.L[k]) || math.IsInf(box.L[k], 0) {
				return nil, fmt.Errorf("neighbor: box edge %d is %g: %w", k, box.L[k], ErrNonFinite)
			}
			if box.L[k] < 2*rc {
				return nil, fmt.Errorf("neighbor: box edge %d (%.3f) < 2*rcut_build (%.3f); minimum image invalid", k, box.L[k], 2*rc)
			}
		}
	}
	b := &builder{pos: pos, types: types, nloc: nloc, box: box, rc: rc}
	if useCells(pos, nall, box, rc) {
		b.g = binAtoms(pos, nall, box, rc)
	} else {
		b.all = make([]int32, nall)
		for j := range b.all {
			b.all[j] = int32(j)
		}
	}
	return b.build(max(1, min(workers, (nloc+minBlock-1)/minBlock))), nil
}

// builder is one Build call. With a grid, row i's scan visits every atom
// of the 3x3x3 cells around atom i; without one (the all-pairs regime:
// boxes too small for three cells a side) it visits all[i+1:], and each
// pair found counts for row j too when j is local.
type builder struct {
	pos   []float64
	types []int
	nloc  int
	box   *Box
	rc    float64
	g     *grid
	all   []int32 // 0, 1, ..., nall-1 when g is nil
}

// rowScan is one worker's state. hits holds a record per scanned row i: i,
// the number n of neighbors found, then their n indices. cnt[r] is how
// many entries the worker's pairs put in row r; after the scan it becomes
// the worker's write cursor into the arena. next and dealt are sortRow's
// scratch.
type rowScan struct {
	hits  []int32
	cnt   []int
	next  []int
	dealt []Entry
}

func (b *builder) build(workers int) *List {
	l := &List{Nloc: b.nloc, Entries: make([][]Entry, b.nloc)}
	scans := make([]rowScan, workers)
	var claimed atomic.Int64
	eachRow := func(w int, f func(sc *rowScan, i int)) {
		for lo := int(claimed.Add(rowBlock)) - rowBlock; lo < b.nloc; lo = int(claimed.Add(rowBlock)) - rowBlock {
			for i := lo; i < min(lo+rowBlock, b.nloc); i++ {
				f(&scans[w], i)
			}
		}
	}
	parallel(workers, func(w int) {
		scans[w].cnt = make([]int, b.nloc)
		eachRow(w, func(sc *rowScan, i int) { sc.scanRow(b, i) })
	})

	// Row r holds worker 0's entries, then worker 1's, and so on.
	total := 0
	for r := 0; r < b.nloc; r++ {
		for w := range scans {
			total, scans[w].cnt[r] = total+scans[w].cnt[r], total
		}
	}
	arena := make([]Entry, total)
	for r := range l.Entries {
		end := total
		if r+1 < b.nloc {
			end = scans[0].cnt[r+1]
		}
		// Capped (three-index) views: an append by a consumer cannot
		// clobber the next row.
		l.Entries[r] = arena[scans[0].cnt[r]:end:end]
	}
	parallel(workers, func(w int) { scans[w].fill(b, arena) })

	claimed.Store(0)
	parallel(workers, func(w int) {
		eachRow(w, func(sc *rowScan, i int) { sc.sortRow(l.Entries[i], b.rc) })
	})
	return l
}

// parallel runs f(0), ..., f(workers-1) at once, f(0) on the calling
// goroutine, and returns when all have returned.
func parallel(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// scanRow records row i's neighbors and counts them.
func (sc *rowScan) scanRow(b *builder, i int) {
	at := len(sc.hits)
	sc.add(int32(i))
	sc.add(0)
	if b.g == nil {
		sc.scanAtoms(b, i, b.all[i+1:])
	} else {
		sc.scanCells(b, i)
	}
	found := sc.hits[at+2:]
	sc.hits[at+1] = int32(len(found))
	sc.cnt[i] += len(found)
	for _, j := range found {
		if b.g == nil && int(j) < b.nloc {
			sc.cnt[j]++
		}
	}
}

// add appends one word to hits, doubling the buffer when it is full: append
// grows a large slice by a quarter at a time, which allocates about five
// times the final size on the way.
func (sc *rowScan) add(v int32) {
	if len(sc.hits) == cap(sc.hits) {
		sc.hits = append(make([]int32, 0, 2*cap(sc.hits)+1024), sc.hits...)
	}
	sc.hits = append(sc.hits, v)
}

// scanCells records the neighbors of atom i found in the 3x3x3 cell
// neighborhood of its cell.
func (sc *rowScan) scanCells(b *builder, i int) {
	g := b.g
	nc := g.nc
	ci := int(g.cellOf[i])
	cx := ci / (nc[1] * nc[2])
	cy := (ci / nc[2]) % nc[1]
	cz := ci % nc[2]
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				nx, ny, nz := cx+dx, cy+dy, cz+dz
				if b.box != nil {
					nx = (nx + nc[0]) % nc[0]
					ny = (ny + nc[1]) % nc[1]
					nz = (nz + nc[2]) % nc[2]
				} else if nx < 0 || nx >= nc[0] || ny < 0 || ny >= nc[1] || nz < 0 || nz >= nc[2] {
					continue
				}
				id := (nx*nc[1]+ny)*nc[2] + nz
				sc.scanAtoms(b, i, g.order[g.count[id]:g.count[id+1]])
			}
		}
	}
}

// scanAtoms records the atoms of cand other than i that lie inside atom
// i's build cutoff. It is displacement written out with atom i's position
// held in registers, the hottest loop of Build.
func (sc *rowScan) scanAtoms(b *builder, i int, cand []int32) {
	p, rc2 := b.pos, b.rc*b.rc
	xi, yi, zi := p[3*i], p[3*i+1], p[3*i+2]
	for _, j := range cand {
		d := [3]float64{p[3*j] - xi, p[3*j+1] - yi, p[3*j+2] - zi}
		if b.box != nil {
			b.box.MinImage(&d)
		}
		if d[0]*d[0]+d[1]*d[1]+d[2]*d[2] < rc2 && int(j) != i {
			sc.add(j)
		}
	}
}

// fill replays the worker's scan records into the arena at its cursors.
func (sc *rowScan) fill(b *builder, arena []Entry) {
	cur := sc.cnt
	for k := 0; k < len(sc.hits); {
		i, n := int(sc.hits[k]), int(sc.hits[k+1])
		for _, j32 := range sc.hits[k+2 : k+2+n] {
			j := int(j32)
			d := displacement(b.pos, i, j, b.box)
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			arena[cur[i]] = Entry{Type: b.types[j], Dist: r, Index: j}
			cur[i]++
			if b.g == nil && j < b.nloc {
				// -d squares to the same bits, so row j holds the
				// distance its own scan would have computed.
				arena[cur[j]] = Entry{Type: b.types[i], Dist: r, Index: i}
				cur[j]++
			}
		}
		k += 2 + n
	}
}

// sortRow puts a row in keyOrder. A counting pass deals the entries into
// buckets by type and by (dist/rc)³, which the key order never decreases
// within a type and which spreads neighbors that fill the cutoff sphere
// evenly over the buckets; an insertion sort then repairs what is left,
// the order inside each bucket. Rows whose types are spread wider than
// their length take a comparison sort.
func (sc *rowScan) sortRow(row []Entry, rc float64) {
	n := len(row)
	if n < 2 {
		return
	}
	tmin, tmax := row[0].Type, row[0].Type
	for _, e := range row {
		tmin, tmax = min(tmin, e.Type), max(tmax, e.Type)
	}
	span := tmax - tmin + 1 // <= 0 when the difference overflows
	if span <= 0 || span > n {
		slices.SortFunc(row, keyOrder)
		return
	}
	bands := n / span
	bucket := func(e Entry) int {
		x := e.Dist / rc
		return (e.Type-tmin)*bands + min(int(x*x*x*float64(bands)), bands-1)
	}
	sc.next = tensor.Resize(sc.next, span*bands+1)
	clear(sc.next)
	for _, e := range row {
		sc.next[bucket(e)+1]++
	}
	for k := 1; k < len(sc.next); k++ {
		sc.next[k] += sc.next[k-1]
	}
	sc.dealt = tensor.Resize(sc.dealt, n)
	for _, e := range row {
		k := bucket(e)
		sc.dealt[sc.next[k]] = e
		sc.next[k]++
	}
	for a, e := range sc.dealt {
		for ; a > 0 && keyOrder(row[a-1], e) > 0; a-- {
			row[a] = row[a-1]
		}
		row[a] = e
	}
}

// keyOrder is the order of Encode's keys, (type, ⌊dist·1e8⌋, index),
// without their range limits. Indices are unique within a row, so it is a
// total order: a sorted row does not depend on the order it was filled in.
func keyOrder(a, b Entry) int {
	if a.Type != b.Type {
		return cmp.Compare(a.Type, b.Type)
	}
	// Distances are finite and not negative: no NaN case to order.
	if qa, qb := math.Floor(a.Dist*distScale), math.Floor(b.Dist*distScale); qa != qb {
		if qa < qb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Index, b.Index)
}
