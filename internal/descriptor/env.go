package descriptor

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// EnvOut is the output of the Environment operator for one evaluation:
// everything downstream of it (embedding, descriptor, fitting) only needs
// R; ProdForce and ProdVirial additionally need Geo, from which they
// rebuild dR~/dd per slot (a closed form of Geo and R~[0], so it is not
// stored: 8 doubles a slot instead of 19). All fields are double precision
// — the paper's mixed-precision model converts R to float32 only after
// this operator (Sec. 5.2.3).
type EnvOut struct {
	Nloc   int
	Stride int
	// Fmt is the current-step formatted neighbor table (sorted by type
	// then by *current* distance, padded with -1).
	Fmt *neighbor.Formatted
	// R is the environment matrix R~: Nloc x Stride x 4, rows
	// (s, s*dx/r, s*dy/r, s*dz/r); zero rows for padding slots.
	R []float64
	// Geo is each slot's geometry: Nloc x Stride x 4, rows (dx, dy, dz,
	// s'(r)) for the displacement d = r_j - r_i. s'(r) < 0 on every filled
	// slot (Smooth), so a zero in column 3 marks a slot the operator left
	// zero.
	Geo []float64
	// Count bounds the non-zero rows of every (atom, type section): Nloc x
	// len(Sel), entry i*len(Sel)+t for section t of atom i. The one
	// invariant: R and Geo are exactly zero at and beyond slot Count of the
	// section (skin entries outside the cutoff, -1 padding); slots before
	// it may be zero too (a neighbor coincident with the center). Count is
	// the index after the last slot the operator filled, so it is the
	// tightest such bound. Downstream stages stop there: padding costs them
	// nothing.
	Count []int32
}

// Scratch holds the reusable state of the optimized operators, mirroring
// the "allocate a trunk of GPU memory at the initialization stage and
// re-use it throughout the MD simulation" strategy of Sec. 5.2.2.
type Scratch struct {
	fm  neighbor.Formatter
	ws  RowScratch // the whole-range Environment call's
	out EnvOut
	// fresh is decided by Begin: the buffers do not carry the previous
	// call's rows (first use, or a different nloc or Sel), so Rows zeroes
	// its range whole instead of trusting out.Count.
	fresh bool
}

// RowScratch is one goroutine's reusable state for Scratch.Rows: the
// current atom's refreshed neighbor row and the formatter's sort scratch.
type RowScratch struct {
	sort neighbor.SortScratch
	row  []neighbor.Entry
}

// RowStats is what one Rows call reports to whoever collects the blocks.
type RowStats struct {
	Entries int64 // raw list entries refreshed
	Dropped int   // neighbors dropped by full sections, for Formatted.Overflow
}

// Environment is the optimized customized operator: it recomputes
// current-step distances from the raw (rebuild-time) list, formats the
// neighbors by sorting their compressed 64-bit keys, and fills the
// environment matrix with a branch-free loop over the fixed-stride table.
// The returned EnvOut aliases Scratch buffers and is valid until the next
// call. It is Begin followed by Rows over every atom on the calling
// goroutine; internal/core runs the same two with the atoms cut into blocks.
func (sc *Scratch) Environment(ctr *perf.Counter, cfg Config, pos []float64, types []int, list *neighbor.List, box *neighbor.Box) (*EnvOut, error) {
	start := ctr.Now()
	out := sc.Begin(cfg, list.Nloc)
	st, err := sc.Rows(&sc.ws, cfg, pos, list, box, 0, list.Nloc)
	if err != nil {
		return nil, err
	}
	out.Fmt.Overflow = st.Dropped
	ctr.Observe(perf.CatCUSTOM, start, EnvFLOPs(out, st.Entries))
	return out, nil
}

// EnvFLOPs is the operator's analytic charge for one frame: the distance
// refresh of every raw list entry plus the padded slot computation.
func EnvFLOPs(env *EnvOut, entries int64) int64 {
	return entries*RefreshFLOPsPerEntry + int64(env.Nloc)*int64(env.Stride)*EnvFLOPsPerSlot
}

// Begin sizes the outputs for nloc atoms and returns them with every row
// still to be computed: Rows must then run over ranges that together cover
// [0, nloc), each atom once, from any number of goroutines (rows are
// independent, so the result does not depend on the cut), and the caller
// adds the ranges' Dropped into Fmt.Overflow.
//
// Nothing is zeroed here. The one invariant of EnvOut.Count is what makes
// that safe: when the previous call on this Scratch had the same nloc and
// Sel, every (atom, section) is already zero at and beyond its old Count,
// so Rows only has to zero the slots it does not refill below it.
func (sc *Scratch) Begin(cfg Config, nloc int) *EnvOut {
	out := &sc.out
	sc.fresh = out.Fmt == nil || out.Nloc != nloc || !slices.Equal(out.Fmt.Sel, cfg.Sel)
	out.Fmt = sc.fm.Begin(neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}, nloc)
	stride := out.Fmt.Stride
	out.Nloc, out.Stride = nloc, stride
	out.R = tensor.Resize(out.R, nloc*stride*4)
	out.Geo = tensor.Resize(out.Geo, nloc*stride*4)
	out.Count = tensor.Resize(out.Count, nloc*len(cfg.Sel))
	return out
}

// Rows runs the operator for center atoms [lo, hi) of the frame Begin
// prepared: per atom, the distance refresh (the raw list holds rebuild-time
// distances, but padding overflow must keep the *currently* nearest
// neighbors, Sec. 5.2.1), the compressed-key format of its table row —
// whose sort meets only the inversions drift made since Build sorted the
// row — and the environment rows. An error names the lowest failing atom
// of the range; the atoms before it are complete and the ones after it
// keep their previous rows, so the Count invariant survives a failed call.
//
//dp:noalloc
func (sc *Scratch) Rows(ws *RowScratch, cfg Config, pos []float64, list *neighbor.List, box *neighbor.Box, lo, hi int) (RowStats, error) {
	out := &sc.out
	stride, nt := out.Stride, len(cfg.Sel)
	if sc.fresh {
		clear(out.R[lo*stride*4 : hi*stride*4])
		clear(out.Geo[lo*stride*4 : hi*stride*4])
		clear(out.Count[lo*nt : hi*nt])
	}
	var st RowStats
	for i := lo; i < hi; i++ {
		row := ws.row[:0]
		for _, e := range list.Entries[i] {
			row = append(row, neighbor.Entry{Type: e.Type, Dist: vecNorm(disp(pos, i, e.Index, box)), Index: e.Index})
		}
		ws.row = row
		st.Entries += int64(len(row))
		dropped, err := out.Fmt.FormatRow(&ws.sort, i, row)
		if err != nil {
			return st, fmt.Errorf("descriptor: atom %d: %w", i, err)
		}
		st.Dropped += dropped
		fillEnvRow(cfg, pos, i, out.Fmt.Idx[i*stride:(i+1)*stride], out.Fmt.SelOff, box,
			out.R[i*stride*4:(i+1)*stride*4],
			out.Geo[i*stride*4:(i+1)*stride*4],
			out.Count[i*nt:(i+1)*nt])
	}
	return st, nil
}

// EnvironmentBaseline is the baseline operator of Table 3: a comparison
// sort over AoS records, fresh allocations on every call, and the same
// mathematical output. Intended for benchmarking and cross-validation.
func EnvironmentBaseline(ctr *perf.Counter, cfg Config, pos []float64, types []int, list *neighbor.List, box *neighbor.Box) (*EnvOut, error) {
	start := ctr.Now()
	nloc := list.Nloc
	stride := cfg.Stride()

	upd := neighbor.List{Nloc: nloc, Entries: make([][]neighbor.Entry, nloc)}
	for i, nbrs := range list.Entries {
		row := make([]neighbor.Entry, 0, len(nbrs))
		for _, e := range nbrs {
			d := disp(pos, i, e.Index, box)
			row = append(row, neighbor.Entry{Type: e.Type, Dist: vecNorm(d), Index: e.Index})
		}
		upd.Entries[i] = row
	}
	fmtd, err := neighbor.FormatBaseline(neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}, &upd)
	if err != nil {
		return nil, err
	}

	out := &EnvOut{
		Nloc: nloc, Stride: stride, Fmt: fmtd,
		R:     make([]float64, nloc*stride*4),
		Geo:   make([]float64, nloc*stride*4),
		Count: make([]int32, nloc*len(cfg.Sel)),
	}
	// The baseline walks the *raw* AoS entries and branches on the type of
	// every neighbor to locate its slot, the access pattern Sec. 5.2.1
	// calls out.
	for i := 0; i < nloc; i++ {
		fill := make([]int, len(cfg.Sel))
		ent := append([]neighbor.Entry(nil), upd.Entries[i]...)
		sort.Slice(ent, func(a, b int) bool {
			if ent[a].Type != ent[b].Type {
				return ent[a].Type < ent[b].Type
			}
			if ent[a].Dist != ent[b].Dist {
				return ent[a].Dist < ent[b].Dist
			}
			return ent[a].Index < ent[b].Index
		})
		for _, e := range ent {
			var k int
			switch { // explicit per-type branching
			case e.Type == 0:
				k = fill[0]
			default:
				k = fmtd.SelOff[e.Type] + fill[e.Type]
			}
			if fill[e.Type] >= cfg.Sel[e.Type] {
				continue
			}
			fill[e.Type]++
			slot := make([]float64, 4) // per-neighbor temporary (AoS style)
			geo := make([]float64, 4)  // allocated afresh each neighbor
			if fillEnvSlot(cfg, pos, i, e.Index, box, slot, geo) {
				out.Count[i*len(cfg.Sel)+e.Type] = int32(fill[e.Type])
			}
			copy(out.R[(i*stride+k)*4:], slot)
			copy(out.Geo[(i*stride+k)*4:], geo)
		}
	}
	ctr.Observe(perf.CatCUSTOM, start, int64(nloc)*int64(stride)*EnvFLOPsPerSlot)
	return out, nil
}

// The customized operators' analytic FLOP charges, exported so the FLOP
// model in internal/core counts with the numbers the operators report.
const (
	// EnvFLOPsPerSlot is charged per padded slot of the environment
	// computation: the distance 9 (3 sub, 3 mul, 2 add, sqrt), the
	// switching function and its derivative 18 (Smooth's switched shell,
	// cos and sin one each), then 1/r, q and the 3 entries q*d_a 5.
	EnvFLOPsPerSlot = 9 + 18 + 5
	// RefreshFLOPsPerEntry is charged per raw list entry for the
	// current-step distance the re-sort needs.
	RefreshFLOPsPerEntry = 9
	// ProdForceFLOPsPerEntry and ProdVirialFLOPsPerEntry are charged per
	// slot the products visit: the real rows below Count (the baselines
	// charge the padded stride). Each pays the slot's dR~/dd rebuild,
	// jacobianFLOPs, and the contraction dd 24 (12 multiply-adds);
	// then the force its scatter to neighbor and center 6, the virial its
	// outer product d x dd 18 (9 multiply-subtracts).
	ProdForceFLOPsPerEntry  = jacobianFLOPs + 24 + 6
	ProdVirialFLOPsPerEntry = jacobianFLOPs + 24 + 18
	// jacobianFLOPs is the rebuild of one slot's dR~/dd from its
	// geometry row (slotJacobian): r 6, 1/r and q 2, dq/dr 4, the unit
	// vector 3, dR~[0]/dd 3, the 9 terms d_b*dq*d_a/r 18 and the diagonal
	// q 3.
	jacobianFLOPs = 6 + 2 + 4 + 3 + 3 + 18 + 3
)

// fillEnvRow computes R~ and the geometry row for one atom over its
// formatted slot row, section by section. On entry count[t] bounds what an
// earlier call left in section t (zero at and beyond it); on return it is
// the index, within the section, after the last slot that was filled, and
// the bound holds again: below the old count, the slots fillEnvSlot
// declined and the ones past the section's last neighbor are zeroed here.
func fillEnvRow(cfg Config, pos []float64, i int, rowIdx []int32, selOff []int, box *neighbor.Box, r, geo []float64, count []int32) {
	for t := range count {
		stale := selOff[t] + int(count[t])
		n := 0
		k := selOff[t]
		for ; k < selOff[t+1] && rowIdx[k] >= 0; k++ {
			if fillEnvSlot(cfg, pos, i, int(rowIdx[k]), box, r[k*4:k*4+4], geo[k*4:k*4+4]) {
				n = k - selOff[t] + 1
			} else if k < stale {
				clear(r[k*4 : k*4+4])
				clear(geo[k*4 : k*4+4])
			}
		}
		if k < stale {
			clear(r[k*4 : stale*4])
			clear(geo[k*4 : stale*4])
		}
		count[t] = int32(n)
	}
}

// fillEnvSlot computes one slot's environment row and geometry row and
// reports whether it wrote anything: a neighbor that moved outside the
// cutoff since the last rebuild, or that coincides with the center, leaves
// its slot zero. With d = r_j - r_i, r = |d|, s = Smooth(r) and q = s/r:
//
//	R~  = (s, q*dx, q*dy, q*dz)
//	geo = (dx, dy, dz, s'(r))
func fillEnvSlot(cfg Config, pos []float64, i, j int, box *neighbor.Box, r, geo []float64) bool {
	d := disp(pos, i, j, box)
	rr := vecNorm(d)
	if rr >= cfg.Rcut || rr == 0 {
		return false
	}
	s, ds := Smooth(rr, cfg.RcutSmth, cfg.Rcut)
	inv := 1 / rr
	q := s * inv

	r[0] = s
	r[1] = q * d[0]
	r[2] = q * d[1]
	r[3] = q * d[2]
	geo[0], geo[1], geo[2], geo[3] = d[0], d[1], d[2], ds
	return true
}

// slotJacobian writes dR~/dd of one slot into dr (4 x 3, dr[c*3+a] =
// dR~[c]/dd_a) from the slot's s = R~[0] and geometry row g:
//
//	dR~[0]/dd_a   = s'(r) * d_a / r
//	dR~[b]/dd_a   = q*delta(ab) + d_b * (s'/r - s/r^2) * d_a / r
//
// ProdRows inlines the same operations in the same order, so both give the
// same bits. A slot the operator left zero (g[3] == 0; s' < 0 on every
// filled slot) has no Jacobian to rebuild — its r would be 0 — and leaves
// dr untouched.
func slotJacobian(s float64, g, dr []float64) {
	ds := g[3]
	if ds == 0 {
		return
	}
	d := [3]float64{g[0], g[1], g[2]}
	inv := 1 / vecNorm(d)
	q := s * inv
	dq := ds*inv - s*inv*inv // dq/dr

	for a := 0; a < 3; a++ {
		ra := d[a] * inv // unit vector component
		dr[a] = ds * ra  // dR~[0]/dd_a
		for b := 0; b < 3; b++ {
			v := d[b] * dq * ra
			if a == b {
				v += q
			}
			dr[(b+1)*3+a] = v
		}
	}
}

func disp(pos []float64, i, j int, box *neighbor.Box) [3]float64 {
	d := [3]float64{
		pos[3*j] - pos[3*i],
		pos[3*j+1] - pos[3*i+1],
		pos[3*j+2] - pos[3*i+2],
	}
	if box != nil {
		box.MinImage(&d)
	}
	return d
}

func vecNorm(d [3]float64) float64 {
	return math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
}

// ConvertR copies the environment matrix into the network precision; this
// is the double -> single boundary of the mixed-precision model. dst is
// resized to the matrix and written whole.
func ConvertR[T tensor.Float](ctr *perf.Counter, env *EnvOut, dst []T) []T {
	start := ctr.Now()
	dst = tensor.Resize(dst, len(env.R))
	ConvertRows(env, dst, nil, 0, env.Nloc)
	ctr.Observe(perf.CatSLICE, start, 0)
	return dst
}

// ConvertRows converts the rows of center atoms [lo, hi): per (atom,
// section) the Count rows that can be non-zero, then zeros up to where dst
// may still hold an earlier frame's rows. have records that bound for a dst
// that is reused (Nloc x len(Sel), maintained here: on entry what the last
// conversion into dst left, on return Count); nil means dst is unknown and
// every section is zeroed to its end.
//
//dp:noalloc
func ConvertRows[T tensor.Float](env *EnvOut, dst []T, have []int32, lo, hi int) {
	stride, selOff := env.Stride, env.Fmt.SelOff
	nt := len(selOff) - 1
	for i := lo; i < hi; i++ {
		for t := 0; t < nt; t++ {
			base := (i*stride + selOff[t]) * 4
			n := 4 * int(env.Count[i*nt+t])
			src, d := env.R[base:base+n], dst[base:base+n]
			for x, v := range src {
				d[x] = T(v)
			}
			end := 4 * (selOff[t+1] - selOff[t])
			if have != nil {
				end = 4 * int(have[i*nt+t])
				have[i*nt+t] = env.Count[i*nt+t]
			}
			if n < end {
				clear(dst[base+n : base+end])
			}
		}
	}
}
