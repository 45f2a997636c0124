package descriptor

import (
	"fmt"
	"math"

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
//
// The rows are stored ragged: each (atom, type section) holds exactly its
// real rows, and nothing is padded to Sel.
type EnvOut struct {
	Nloc int
	// Fmt is the current-step formatted neighbor table (sorted by type
	// then by *current* distance).
	Fmt *neighbor.Formatted
	// Off addresses the rows: Nloc*len(Sel)+1 offsets, and section t of
	// atom i (k = i*len(Sel)+t) holds rows Off[k] to Off[k+1]. Its
	// n = Off[k+1]-Off[k] rows are the first n neighbors of
	// Fmt.Section(i, t), up to the last one inside the cutoff; the skin
	// entries past it have no row. A row before it may be zero (a neighbor
	// coincident with the center, which the operator declines).
	Off []int
	// R is the environment matrix R~: Off[Nloc*len(Sel)] rows of
	// (s, s*dx/r, s*dy/r, s*dz/r).
	R []float64
	// Geo is each row's geometry, laid out like R: (dx, dy, dz, s'(r)) for
	// the displacement d = r_j - r_i. s'(r) < 0 on every filled row
	// (Smooth), so a zero in column 3 marks a row the operator left zero.
	Geo []float64
}

// Scratch holds the reusable state of the optimized operators, mirroring
// the "allocate a trunk of GPU memory at the initialization stage and
// re-use it throughout the MD simulation" strategy of Sec. 5.2.2.
type Scratch struct {
	fm  neighbor.Formatter
	ws  RowScratch // the whole-range Environment call's
	out EnvOut
}

// RowScratch is one goroutine's reusable state for Scratch.Rows: the
// current atom's refreshed neighbor distances, which FormatRow leaves in
// kept order, and the formatter's sort scratch.
type RowScratch struct {
	sort neighbor.SortScratch
	dist []float64
}

// RowStats is what one Rows call reports to whoever collects the blocks.
type RowStats struct {
	Entries int64 // raw list entries refreshed
	Dropped int   // neighbors dropped by full sections, for Formatted.Overflow
}

// Environment is the optimized customized operator: it computes
// current-step distances for the raw list's indices, formats the
// neighbors by sorting their 64-bit keys, and fills the
// environment matrix with a branch-free loop over the real rows of every
// section. The returned EnvOut aliases Scratch buffers and is valid until
// the next call. It is Begin, Rows over every atom, Pack and Fill over
// every atom on the calling goroutine; internal/core runs the same four
// with the atoms cut into blocks.
func (sc *Scratch) Environment(ctr *perf.Counter, cfg Config, pos []float64, types []int, list *neighbor.List, box *neighbor.Box) (*EnvOut, error) {
	start := ctr.Now()
	out := sc.Begin(cfg, list)
	st, err := sc.Rows(&sc.ws, cfg, pos, list, box, 0, list.Nloc)
	if err != nil {
		return nil, err
	}
	out.Fmt.Overflow = st.Dropped
	sc.Pack()
	sc.Fill(cfg, pos, box, 0, list.Nloc)
	ctr.Observe(perf.CatCUSTOM, start, EnvFLOPs(out, st.Entries))
	return out, nil
}

// EnvFLOPs is the operator's analytic charge for one frame: the distance
// refresh of every raw list entry plus the slot computation, charged per
// padded slot (Nloc x sum of Sel) as the paper counts it.
func EnvFLOPs(env *EnvOut, entries int64) int64 {
	return entries*RefreshFLOPsPerEntry + paddedSlots(env)*EnvFLOPsPerSlot
}

// Begin sizes the formatted table for the rows of list and returns the
// output with every row still to be computed. The operator then runs in
// two passes around one serial step:
//
//	Rows  over ranges that together cover [0, Nloc), each atom once,
//	      from any number of goroutines; the caller adds the ranges'
//	      Dropped into Fmt.Overflow
//	Pack  once, after every Rows call has returned
//	Fill  over ranges that together cover [0, Nloc), as Rows
//
// Rows are independent, so the result does not depend on the cut.
func (sc *Scratch) Begin(cfg Config, list *neighbor.List) *EnvOut {
	out := &sc.out
	out.Fmt = sc.fm.Begin(neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}, list)
	out.Nloc = list.Nloc
	out.Off = tensor.Resize(out.Off, list.Nloc*len(cfg.Sel)+1)
	out.Off[0] = 0
	return out
}

// Rows runs the first pass for center atoms [lo, hi) of the frame Begin
// prepared: per atom, the distance refresh (Build ordered the raw list at
// rebuild-time distances, but a full section must keep the *currently*
// nearest neighbors, Sec. 5.2.1), the key format of its table row — whose
// sort meets only the inversions drift made since Build sorted the row —
// and each section's row count, which it leaves in Off[k+1] for Pack. A
// neighbor index outside the frame, or a non-finite distance, is an error;
// an error names the lowest failing atom of the range. The refresh runs on
// the AVX-512 kernel up to the first group of eight it declines; the Go
// loop does the rest, so errors and far images come from it.
//
//dp:noalloc
func (sc *Scratch) Rows(ws *RowScratch, cfg Config, pos []float64, list *neighbor.List, box *neighbor.Box, lo, hi int) (RowStats, error) {
	out := &sc.out
	nt := len(cfg.Sel)
	nall := len(pos) / 3
	var st RowStats
	for i := lo; i < hi; i++ {
		nbrs := list.Entries[i]
		ws.dist = tensor.Resize(ws.dist, len(nbrs))
		for k := envRefresh(pos, i, nbrs, ws.dist, box); k < len(nbrs); k++ {
			j := nbrs[k]
			if uint(j) >= uint(nall) {
				return st, fmt.Errorf("descriptor: atom %d: neighbor index %d outside [0, %d)", i, j, nall)
			}
			r := vecNorm(neighbor.Displacement(pos, i, int(j), box))
			if !(r <= math.MaxFloat64) {
				return st, fmt.Errorf("descriptor: atom %d: neighbor %d at distance %g", i, j, r)
			}
			ws.dist[k] = r
		}
		st.Entries += int64(len(nbrs))
		dropped, err := out.Fmt.FormatRow(&ws.sort, i, nbrs, ws.dist, list.Types)
		if err != nil {
			return st, fmt.Errorf("descriptor: atom %d: %w", i, err)
		}
		st.Dropped += dropped
		b := 0
		for t := 0; t < nt; t++ {
			e := b + len(out.Fmt.Section(i, t))
			out.Off[i*nt+t+1] = sectionRows(cfg, ws.dist[b:e])
			b = e
		}
	}
	return st, nil
}

// sectionRows is the number of rows a formatted section needs: the index
// after its last neighbor inside the cutoff, given the section's distances
// r in kept order (nearest first). The search runs from the far end and
// stops there; the skin entries it passes get no row.
func sectionRows(cfg Config, r []float64) int {
	for k := len(r) - 1; k >= 0; k-- {
		if r[k] < cfg.Rcut && r[k] != 0 {
			return k + 1
		}
	}
	return 0
}

// Pack turns the row counts Rows left in Off into offsets and sizes R and
// Geo for them. Growth keeps headroom and capacity is never given back, so
// a steady stream of frames allocates nothing. It returns the row total.
//
//dp:noalloc
func (sc *Scratch) Pack() int {
	out := &sc.out
	for k := 1; k < len(out.Off); k++ {
		out.Off[k] += out.Off[k-1]
	}
	n := out.Off[len(out.Off)-1]
	out.R = tensor.Grow(out.R, 4*n)
	out.Geo = tensor.Grow(out.Geo, 4*n)
	return n
}

// Fill runs the second pass for center atoms [lo, hi): every row of every
// section is computed afresh (fillEnvSlot, or its AVX-512 kernel up to the
// first group of eight it declines), and a row it declines is
// zeroed, so no buffer needs clearing between frames. It recomputes each
// row's displacement rather than carrying Rows' across the Pack barrier,
// which would hold O(entries) bytes for the whole frame.
//
//dp:noalloc
func (sc *Scratch) Fill(cfg Config, pos []float64, box *neighbor.Box, lo, hi int) {
	out := &sc.out
	nt := len(cfg.Sel)
	for i := lo; i < hi; i++ {
		for t := 0; t < nt; t++ {
			b, e := out.Off[i*nt+t], out.Off[i*nt+t+1]
			nbrs, rows, geos := out.Fmt.Section(i, t)[:e-b], out.R[4*b:4*e], out.Geo[4*b:4*e]
			for k := envFill(cfg, pos, i, nbrs, box, rows, geos); k < len(nbrs); k++ {
				r, geo := rows[4*k:4*k+4], geos[4*k:4*k+4]
				if !fillEnvSlot(cfg, pos, i, int(nbrs[k]), box, r, geo) {
					clear(r)
					clear(geo)
				}
			}
		}
	}
}

// EnvironmentBaseline is the baseline operator of Table 3: a comparison
// sort over AoS records, fresh allocations on every call, and the same
// mathematical output. Intended for benchmarking and cross-validation.
func EnvironmentBaseline(ctr *perf.Counter, cfg Config, pos []float64, types []int, list *neighbor.List, box *neighbor.Box) (*EnvOut, error) {
	start := ctr.Now()
	nloc := list.Nloc
	nt := len(cfg.Sel)

	fmtd, err := neighbor.FormatBaseline(neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}, list, pos, box)
	if err != nil {
		return nil, err
	}

	out := &EnvOut{Nloc: nloc, Fmt: fmtd, Off: make([]int, nloc*nt+1)}
	for i := 0; i < nloc; i++ {
		for t := 0; t < nt; t++ {
			var rows, geos []float64 // R~ and geometry rows, grown neighbor by neighbor
			n := 0
			for k, j := range fmtd.Section(i, t) {
				slot := make([]float64, 4) // per-neighbor temporary (AoS style)
				geo := make([]float64, 4)  // allocated afresh each neighbor
				if fillEnvSlot(cfg, pos, i, int(j), box, slot, geo) {
					n = k + 1
				}
				rows = append(rows, slot...)
				geos = append(geos, geo...)
			}
			out.R = append(out.R, rows[:4*n]...)
			out.Geo = append(out.Geo, geos[:4*n]...)
			out.Off[i*nt+t+1] = len(out.R) / 4
		}
	}
	ctr.Observe(perf.CatCUSTOM, start, int64(nloc)*int64(cfg.Stride())*EnvFLOPsPerSlot)
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
	// row the products visit (the baselines charge Nloc x sum of Sel, the
	// padded layout the paper counts). Each pays the slot's dR~/dd rebuild,
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

// fillEnvSlot computes one slot's environment row and geometry row and
// reports whether it wrote anything: a neighbor that moved outside the
// cutoff since the last rebuild, or that coincides with the center, leaves
// its slot zero. With d = r_j - r_i, r = |d|, s = Smooth(r) and q = s/r:
//
//	R~  = (s, q*dx, q*dy, q*dz)
//	geo = (dx, dy, dz, s'(r))
func fillEnvSlot(cfg Config, pos []float64, i, j int, box *neighbor.Box, r, geo []float64) bool {
	d := neighbor.Displacement(pos, i, j, box)
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

func vecNorm(d [3]float64) float64 {
	return math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
}

// ConvertR copies the environment matrix into the network precision; this
// is the double -> single boundary of the mixed-precision model. Unlike
// ConvertRows it returns the padded view the layout had before rows were
// stored ragged: dst is resized to Nloc x sum(Sel) x 4 and written whole,
// section t of atom i starting at slot i*sum(Sel) + Sel[0] + ... + Sel[t-1]
// and zero beyond its rows. Its one caller outside the tests is the
// frozen benchmark harness, whose embedding probes index rows by that
// stride; delete the view together with that indexing.
func ConvertR[T tensor.Float](ctr *perf.Counter, env *EnvOut, dst []T) []T {
	start := ctr.Now()
	sel := env.Fmt.Sel
	nt, stride := len(sel), 0
	for _, s := range sel {
		stride += s
	}
	dst = tensor.Resize(dst, env.Nloc*stride*4)
	clear(dst)
	for i := 0; i < env.Nloc; i++ {
		slot := i * stride
		for t := 0; t < nt; t++ {
			b, e := env.Off[i*nt+t], env.Off[i*nt+t+1]
			for x, v := range env.R[4*b : 4*e] {
				dst[4*slot+x] = T(v)
			}
			slot += sel[t]
		}
	}
	ctr.Observe(perf.CatSLICE, start, 0)
	return dst
}

// ConvertRows converts the rows of center atoms [lo, hi) into dst, which
// is laid out like R (at least Off[hi*len(Sel)] rows).
//
//dp:noalloc
func ConvertRows[T tensor.Float](env *EnvOut, dst []T, lo, hi int) {
	nt := len(env.Fmt.Sel)
	b, e := 4*env.Off[lo*nt], 4*env.Off[hi*nt]
	d := dst[b:e]
	for x, v := range env.R[b:e] {
		d[x] = T(v)
	}
}
