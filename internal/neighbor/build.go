package neighbor

import (
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
// neighbors and keeps only their indices; the fill copies them into one
// arena of exactly the list's size; the order pass puts each row in the
// (type, index) order List documents, with integer compares only: no
// distance is computed twice. In the all-pairs regime the scan visits each
// pair i < j once and the fill writes it to both rows.
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
	types32 := make([]int32, nall)
	for j, t := range types {
		if int(int32(t)) != t {
			return nil, fmt.Errorf("neighbor: atom %d has type %d outside the int32 range of List.Types", j, t)
		}
		types32[j] = int32(t)
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
	b := &builder{pos: pos, types: types32, nloc: nloc, box: box, rc: rc}
	if box != nil {
		for k, l := range box.L {
			b.inv[k] = 1 / l
		}
	}
	if useCells(pos, nall, box, rc) {
		b.g = binAtoms(pos, nall, box, rc)
	} else {
		// The local atoms, then the ghosts, each in (type, index) order.
		// A one-worker scan then fills every row of a frame without ghosts
		// in table order, and each local row still meets every ghost.
		keys := make([]uint64, nall)
		for j, t := range types32 {
			keys[j] = uint64(b2i(j >= nloc))<<63 | rowKey(t, int32(j))
		}
		slices.Sort(keys)
		b.all = make([]int32, nall)
		for s, key := range keys {
			b.all[s] = int32(key & indexMask)
		}
		b.allPos = gather(pos, b.all)
	}
	return b.build(max(1, min(workers, (nloc+minBlock-1)/minBlock))), nil
}

// builder is one Build call. With a grid, row i's scan visits every atom
// of the 3x3x3 cells around atom i; without one (the all-pairs regime:
// boxes too small for minCells cells a side) the rows are scanned in the
// order of all, the row of all[s] visits all[s+1:], and each pair found
// counts for row j too when j is local.
type builder struct {
	pos   []float64
	types []int32
	nloc  int
	box   *Box
	inv   [3]float64 // 1/L per axis, for scanAtoms' fold
	rc    float64
	g     *grid
	all   []int32 // locals, then ghosts, each in (type, index) order, when g is nil
	// allPos holds the positions of all, in its order, so the scan reads
	// its candidates' coordinates sequentially.
	allPos coords
}

// coords holds the positions of a list of atoms one axis at a time: x[k],
// y[k] and z[k] are the k-th atom's, so the scan kernel loads eight
// candidates' x with one instruction.
type coords [3][]float64

// gather returns the positions (xyz per atom in pos) of the atoms of
// order, in its order.
func gather(pos []float64, order []int32) coords {
	buf := make([]float64, 3*len(order))
	c := coords{buf[:len(order)], buf[len(order) : 2*len(order)], buf[2*len(order):]}
	for s, j := range order {
		c[0][s], c[1][s], c[2][s] = pos[3*j], pos[3*j+1], pos[3*j+2]
	}
	return c
}

// slice returns the positions of atoms lo to hi-1.
func (c coords) slice(lo, hi int) coords {
	return coords{c[0][lo:hi], c[1][lo:hi], c[2][lo:hi]}
}

// rowScan is one worker's state. hits holds a record per scanned row i: i,
// the number n of neighbors found, then their n indices. cnt[r] is how
// many entries the worker's pairs put in row r; after the scan it becomes
// the worker's write cursor into the arena. keys is orderRow's scratch.
// coincident is 1 once the worker has met a pair at zero distance.
type rowScan struct {
	hits       []int32
	cnt        []int
	keys       []uint64
	coincident int
}

func (b *builder) build(workers int) *List {
	l := &List{Nloc: b.nloc, Entries: make([][]int32, b.nloc), Types: b.types}
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
	arena := make([]int32, total)
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
		eachRow(w, func(sc *rowScan, i int) { sc.orderRow(b.types, l.Entries[i]) })
	})
	for w := range scans {
		if scans[w].coincident != 0 {
			l.Coincident = b.lowestCoincident(l)
			break
		}
	}
	return l
}

// lowestCoincident walks the list for its lowest pair at zero distance,
// which the scan has seen: the lowest row, then the lowest index in it.
// Its distances are the scan's, bit for bit (scanAtoms' fold is
// MinImage's), so the walk finds what the scan flagged.
func (b *builder) lowestCoincident(l *List) [2]int {
	for i, row := range l.Entries {
		lowest := -1
		for _, j := range row {
			d := Displacement(b.pos, i, int(j), b.box)
			if d[0]*d[0]+d[1]*d[1]+d[2]*d[2] == 0 && (lowest < 0 || int(j) < lowest) {
				lowest = int(j)
			}
		}
		if lowest >= 0 {
			return [2]int{i, lowest}
		}
	}
	return [2]int{}
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

// scanRow records the neighbors of the s-th row in scan order, atom s's
// with a grid and atom all[s]'s without, and counts them.
func (sc *rowScan) scanRow(b *builder, s int) {
	i := s
	if b.g == nil {
		i = int(b.all[s])
	}
	at := len(sc.hits)
	sc.reserve(2)
	sc.hits = append(sc.hits, int32(i), 0)
	if b.g == nil {
		sc.scanAtoms(b, i, b.all[s+1:], b.allPos.slice(s+1, len(b.all)))
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

// reserve makes room in hits for n more words, doubling the buffer when
// they do not fit: append grows a large slice by a quarter at a time,
// which allocates about five times the final size on the way.
func (sc *rowScan) reserve(n int) {
	if len(sc.hits)+n > cap(sc.hits) {
		sc.hits = append(make([]int32, 0, max(2*cap(sc.hits)+1024, len(sc.hits)+n)), sc.hits...)
	}
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
				lo, hi := g.count[id], g.count[id+1]
				sc.scanAtoms(b, i, g.order[lo:hi], g.orderPos.slice(int(lo), int(hi)))
			}
		}
	}
}

// scanAtoms records the atoms of cand, at positions c, other than i that
// lie inside atom i's build cutoff. It is Displacement written out with
// atom i's position held in registers, the hottest loop of Build. On
// AVX-512 the kernel of scan_amd64.s tests eight candidates at a time,
// with this loop's bits, and this loop finishes what it leaves. The
// periodic fold picks each component's multiple of L from d·(1/L) (see
// nearTie), and every candidate is written to the next free word with the
// cursor advancing only past a hit, so the loop has no branch on the
// geometry. A candidate at zero distance sets the worker's coincident
// flag, also without a branch.
func (sc *rowScan) scanAtoms(b *builder, i int, cand []int32, c coords) {
	rc2 := b.rc * b.rc
	sc.reserve(len(cand))
	n := len(sc.hits)
	hits := sc.hits[:n+len(cand)]
	done, found, zero := scanKernel(b, i, cand, c, hits[n:])
	n += found
	p := b.pos
	xi, yi, zi := p[3*i], p[3*i+1], p[3*i+2]
	cx, cy, cz := c[0][:len(cand)], c[1][:len(cand)], c[2][:len(cand)]
	var l, inv [3]float64
	if b.box != nil {
		l, inv = b.box.L, b.inv
	}
	self := int32(i)
	for k := done; k < len(cand); k++ {
		j := cand[k]
		dx, dy, dz := cx[k]-xi, cy[k]-yi, cz[k]-zi
		if b.box != nil {
			qx, qy, qz := dx*inv[0], dy*inv[1], dz*inv[2]
			if nearTie(qx)|nearTie(qy)|nearTie(qz) != 0 {
				d := [3]float64{dx, dy, dz}
				b.box.MinImage(&d)
				dx, dy, dz = d[0], d[1], d[2]
			} else {
				// int(q+1.5)-1 is -1, 0 or 1 as MinImage's compares
				// pick, and the subtraction is MinImage's.
				dx -= l[0] * float64(int(qx+1.5)-1)
				dy -= l[1] * float64(int(qy+1.5)-1)
				dz -= l[2] * float64(int(qz+1.5)-1)
			}
		}
		hits[n] = j
		d2, other := dx*dx+dy*dy+dz*dz, b2i(j != self)
		n += b2i(d2 < rc2) & other
		zero |= b2i(d2 == 0) & other
	}
	sc.hits = hits[:n]
	sc.coincident |= zero
}

// b2i is 1 for true and 0 for false, which the compiler emits as a flag
// set, not a branch.
func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// foldTol bounds how far q = d·(1/L) lies from MinImage's quotient d/L
// when |d/L| < 1.5: the three roundings between them move a value below
// 1.5 by under 5e-16, and 1e-15 is four and a half ulps of 1.
const foldTol = 1e-15

// nearTie is 1 when q = d·(1/L) cannot stand in for d/L in MinImage's
// choice of multiple: when q lies within foldTol of ±0.5 or ±1.5, where
// the two could fall on different sides of a rounding boundary, beyond
// ±1.5 (far images), or is NaN. Elsewhere both pick the same multiple, so
// the folded component is bitwise MinImage's, and so is list membership.
func nearTie(q float64) int {
	a := math.Abs(q)
	return b2i(!(a < 1.5-foldTol)) | b2i(math.Abs(a-0.5) <= foldTol)
}

// fill replays the worker's scan records into the arena at its cursors.
func (sc *rowScan) fill(b *builder, arena []int32) {
	cur := sc.cnt
	for k := 0; k < len(sc.hits); {
		i, n := int(sc.hits[k]), int(sc.hits[k+1])
		for _, j := range sc.hits[k+2 : k+2+n] {
			arena[cur[i]] = j
			cur[i]++
			if b.g == nil && int(j) < b.nloc {
				arena[cur[j]] = int32(i)
				cur[j]++
			}
		}
		k += 2 + n
	}
}

// rowKey orders neighbors by type, then index: the signed type, shifted
// to unsigned order, above the 31-bit index.
func rowKey(t, j int32) uint64 {
	return uint64(uint32(t)^1<<31)<<31 | uint64(j)
}

// orderRow puts row in (type, index) order. Its indices are unique, so the
// order is total and a row does not depend on the order it was filled in.
// A one-worker all-pairs scan of a frame without ghosts fills every row in
// that order already, which one pass checks; the others (cell scans, rows
// filled by several workers or holding ghosts) take an integer sort.
func (sc *rowScan) orderRow(types []int32, row []int32) {
	prev := uint64(0)
	for _, j := range row {
		key := rowKey(types[j], j)
		if prev > key {
			sc.keys = tensor.Resize(sc.keys, len(row))
			for k, j := range row {
				sc.keys[k] = rowKey(types[j], j)
			}
			slices.Sort(sc.keys)
			for k, key := range sc.keys {
				row[k] = int32(key & indexMask)
			}
			return
		}
		prev = key
	}
}
