package neighbor

import "math"

// grid is the linked-cell decomposition of one configuration: cell counts
// per dimension, cell widths, and the counting-sorted atom order. In
// periodic mode cells tile the box and neighbor cells wrap; in domain mode
// cells tile the bounding box of all atoms (locals + ghosts) without
// wrapping.
type grid struct {
	lo     [3]float64
	nc     [3]int
	cw     [3]float64
	wrap   *Box // nil in domain mode
	cellOf []int32
	// count is the exclusive prefix sum of per-cell populations; the atoms
	// of cell c are order[count[c]:count[c+1]], in ascending atom index.
	count []int32
	order []int32
}

func (g *grid) ncells() int { return g.nc[0] * g.nc[1] * g.nc[2] }

// cellIndex maps a position to its flattened cell id.
func (g *grid) cellIndex(pos []float64, a int) int32 {
	var c [3]int
	for k := 0; k < 3; k++ {
		v := pos[3*a+k] - g.lo[k]
		if g.wrap != nil {
			v -= g.wrap.L[k] * math.Floor(v/g.wrap.L[k])
		}
		ci := int(v / g.cw[k])
		if ci >= g.nc[k] {
			ci = g.nc[k] - 1
		}
		if ci < 0 {
			ci = 0
		}
		c[k] = ci
	}
	return int32((c[0]*g.nc[1]+c[1])*g.nc[2] + c[2])
}

// useCells decides whether a linked-cell search is worthwhile: the domain
// must hold at least 3 cells per dimension, otherwise the all-pairs scan is
// both simpler and as fast.
func useCells(pos []float64, nall int, box *Box, rc float64) bool {
	if nall < 64 {
		return false
	}
	var ext [3]float64
	if box != nil {
		ext = box.L
	} else {
		lo, hi := bounds(pos)
		for k := 0; k < 3; k++ {
			ext[k] = hi[k] - lo[k]
		}
	}
	for k := 0; k < 3; k++ {
		if int(ext[k]/rc) < 3 {
			return false
		}
	}
	return true
}

func bounds(pos []float64) (lo, hi [3]float64) {
	lo = [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi = [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := 0; i < len(pos); i += 3 {
		for k := 0; k < 3; k++ {
			v := pos[i+k]
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	return lo, hi
}

// cellCounts picks ⌊ext/rc⌋ cells per dimension, then coarsens the
// largest dimension until the grid holds at most max(27, nall) cells: the
// grid's memory and prefix-sum work scale with the atom count, not with
// the volume of a sparse box (one stray atom, or a huge client-supplied
// box). Coarser cells only widen the search, and no dimension drops below
// the 3 cells that keep the periodic stencil from visiting a cell twice.
func cellCounts(ext [3]float64, rc float64, nall int) [3]int {
	var nc [3]int
	for k := range nc {
		nc[k] = max(1, int(ext[k]/rc))
	}
	limit := float64(max(27, nall))
	for float64(nc[0])*float64(nc[1])*float64(nc[2]) > limit {
		k := 0
		for j := 1; j < 3; j++ {
			if nc[j] > nc[k] {
				k = j
			}
		}
		others := float64(nc[(k+1)%3]) * float64(nc[(k+2)%3])
		nc[k] = max(3, int(limit/others))
	}
	return nc
}

// binAtoms buckets all atoms into cells with a counting sort, so each
// cell's atoms are listed in ascending atom index. It runs serially: one
// cell lookup per atom is little beside the row scan's 27-cell visits.
func binAtoms(pos []float64, nall int, box *Box, rc float64) *grid {
	g := &grid{wrap: box}
	var ext [3]float64
	if box != nil {
		ext = box.L
	} else {
		var hi [3]float64
		g.lo, hi = bounds(pos)
		for k := 0; k < 3; k++ {
			ext[k] = hi[k] - g.lo[k] + 1e-9
		}
	}
	g.nc = cellCounts(ext, rc, nall)
	for k := 0; k < 3; k++ {
		g.cw[k] = ext[k] / float64(g.nc[k])
	}
	ncells := g.ncells()
	g.cellOf = make([]int32, nall)
	g.count = make([]int32, ncells+1)
	g.order = make([]int32, nall)
	for a := 0; a < nall; a++ {
		id := g.cellIndex(pos, a)
		g.cellOf[a] = id
		g.count[id+1]++
	}
	for c := 1; c <= ncells; c++ {
		g.count[c] += g.count[c-1]
	}
	next := make([]int32, ncells)
	copy(next, g.count[:ncells])
	for a := 0; a < nall; a++ {
		id := g.cellOf[a]
		g.order[next[id]] = int32(a)
		next[id]++
	}
	return g
}
