package core

import (
	"sync"
	"sync/atomic"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// Result holds one potential evaluation. Force has 3*nall entries: forces
// on ghost atoms are accumulated too and must be reverse-communicated by
// the caller in domain-decomposed runs (Sec. 5.4).
type Result struct {
	Energy     float64
	AtomEnergy []float64
	Force      []float64
	Virial     [9]float64
}

// Evaluator executes the optimized Deep Potential pipeline in precision T:
// float64 for the double-precision model, float32 for the mixed-precision
// model (network math in single precision between the double-precision
// Environment and ProdForce boundaries, Sec. 5.2.3).
//
// The descriptor stage runs as one fused operator per chunk of same-type
// atoms (evalChunkExact): the chunk's real neighbor rows go through the
// embedding nets in cache-resident row tiles that span atoms, and every
// tile is contracted with its environment rows into the per-atom
// descriptor items before the next tile overwrites it — no embedding
// matrix exists in memory, the backward pass recomputes the tiles (the
// operator fusion of Sec. 5.3, taken as far as its successors take it).
// Only the fitting net still runs as one chunk-tall GEMM batch (Sec.
// 5.3.1). SetPerAtomDescriptors restores the per-atom loops over
// materialised full-sel matrices — the differential oracle and the
// 2018-granularity reference — and SetCompressedEmbedding replaces the
// embedding networks with tabulated piecewise quintics behind the same
// contractions (internal/compress), the third execution strategy.
//
// Concurrency contract: a raw Evaluator is SINGLE-GOROUTINE. It owns
// persistent arenas, traces and result staging buffers (the zero-alloc
// steady state depends on them), so two goroutines calling Compute on the
// same instance race on every one of them. Workers only parallelizes the
// inside of one Compute call. Callers that need concurrent evaluations —
// serving N systems, replica ensembles — go through an Engine, which
// pools one evaluator per in-flight call and is goroutine-safe
// (TestEngineConcurrentBitIdentical exercises this under -race).
type Evaluator[T tensor.Float] struct {
	cfg    Config
	dcfg   descriptor.Config
	master *Model
	embed  [][]*nn.Net[T]
	fit    []*nn.Net[T]

	// Counter receives FLOPs and per-category operator times; nil is
	// allowed.
	Counter *perf.Counter

	grads   *ModelGrads
	arenas  []*tensor.Arena[T]
	scratch []*evalScratch[T]
	// strat is the resolved descriptor execution strategy (never Auto or
	// Baseline here; the BaselineEvaluator is a separate type).
	strat Strategy
	// comp[ci][tj] is the tabulated embedding net for (center, neighbor)
	// type pair, populated by SetCompressedEmbedding.
	comp [][]*compress.Table[T]

	// frames and batchJobs are the persistent state of the force call
	// (frames.go): one buffer slot per frame of the largest batch served so
	// far — a plain Compute call lives in slot 0 — plus the flattened
	// (frame, chunk) job list of the sweep.
	frames    []*frameState[T]
	batchJobs []batchJob

	// The team of the call in flight: how many frames it serves, the
	// members that sweep and their GEMM budget (splitBudget), one claim
	// cursor per stage, the barrier between stages, whether stage 1
	// failed, and the join of the spawned members.
	nframes   int
	sweepers  int
	sweepOpts tensor.Opts
	cursors   [numStages]atomic.Int64
	bar       barrier
	failed    atomic.Bool
	wg        sync.WaitGroup
}

// chunkJob is one same-type atom chunk of an evaluation.
type chunkJob struct {
	ci    int
	atoms []int
}

// evalScratch is the per-worker reusable state of evalChunk: the network
// traces and the segment list of the current row tile live here instead of
// being re-allocated every chunk, so the steady-state MD step performs no
// heap allocation (the paper's init-time memory-trunk strategy, Sec.
// 5.2.2; asserted by TestComputeZeroAllocSteadyState).
type evalScratch[T tensor.Float] struct {
	embTr nn.Trace[T] // the current row tile's embedding pass
	fitTr nn.Trace[T]
	segs  []tileSeg             // at most one per tile row
	rows  descriptor.RowScratch // stage 1: the current atom's refreshed row and sort keys
}

// NewEvaluator builds an evaluator for the model in precision T, converting
// the master weights once at construction.
func NewEvaluator[T tensor.Float](m *Model) *Evaluator[T] {
	cfg := m.Cfg
	nt := cfg.NumTypes()
	ev := &Evaluator[T]{
		cfg: cfg,
		dcfg: descriptor.Config{
			Rcut:     cfg.Rcut,
			RcutSmth: cfg.RcutSmth,
			Sel:      cfg.Sel,
		},
		master: m,
		embed:  make([][]*nn.Net[T], nt),
		fit:    make([]*nn.Net[T], nt),
	}
	for ci := 0; ci < nt; ci++ {
		ev.embed[ci] = make([]*nn.Net[T], nt)
		for tj := 0; tj < nt; tj++ {
			ev.embed[ci][tj] = shareOrConvert[T](m.Embed[ci][tj])
		}
		ev.fit[ci] = shareOrConvert[T](m.Fit[ci])
	}
	for w := 0; w < max(1, cfg.Workers); w++ {
		ev.arenas = append(ev.arenas, tensor.NewArena[T](ev.arenaLen()))
		ev.scratch = append(ev.scratch, &evalScratch[T]{segs: make([]tileSeg, 0, embedTileRows)})
	}
	ev.strat = StrategyBatched
	ev.bar.cond.L, ev.bar.n = &ev.bar.mu, len(ev.arenas)
	return ev
}

// arenaLen is one worker's arena demand, a closed form of the Config now
// that no operand scales with the neighbor count: a ChunkSize-row chunk's
// descriptor items and fitting-net passes (fitChunk) plus the larger of
// the two fused operators' scratch — the exact one's row tile or the
// tabulated one's Horner tile. Sized at construction, the first force call
// already runs inside the slab (TestArenaSizedAtConstruction); growArenas
// stays as the guard for the per-atom oracle, which materialises full-sel
// matrices.
func (ev *Evaluator[T]) arenaLen() int {
	cfg := &ev.cfg
	nA, m, ax, dim := cfg.ChunkSize, cfg.M(), cfg.MAxis, cfg.DescriptorDim()
	// fitChunk: the 4 x m items, D, the ones column, the backward
	// products' scratch and the fitting net's traced pass.
	fit := nA*(4*m+dim+1) + 8*ax
	fit += ev.fit[0].ArenaLen(nA)
	// evalChunkExact: per tile s, dG, the contraction scratch and the
	// embedding net's traced pass.
	exact := embedTileRows*(1+m) + max(4*m, embedTileRows/2*8)
	exact += ev.embed[0][0].ArenaLen(embedTileRows)
	// evalChunkCompressed: the Horner tile.
	tabulated := compress.FusedScratchLen(m)
	return fit + max(exact, tabulated)
}

// SetPerAtomDescriptors switches the descriptor stage between the default
// fused exact operator and the retained per-atom reference loops (the
// computational granularity the 2018 DeePMD-kit used, and the differential
// oracle the equivalence tests compare against). The mathematics is
// identical; only the execution strategy changes. Turning the per-atom
// path off restores the exact operator, also when the evaluator was
// previously compressed.
func (ev *Evaluator[T]) SetPerAtomDescriptors(on bool) {
	if on {
		ev.strat = StrategyPerAtom
	} else {
		ev.strat = StrategyBatched
	}
}

// CurrentStrategy reports the resolved descriptor execution strategy the
// evaluator is running (Batched, PerAtom or Compressed).
func (ev *Evaluator[T]) CurrentStrategy() Strategy { return ev.strat }

// ArenaBytes reports the total arena slab size; the mixed-precision
// evaluator's is about half the double one's (Sec. 7.1.3).
func (ev *Evaluator[T]) ArenaBytes() int {
	total := 0
	for _, a := range ev.arenas {
		total += a.Bytes()
	}
	return total
}

// Compute evaluates energy, forces and virial. pos holds 3*nall positions
// (locals first, then ghosts), types their types, nloc the number of local
// atoms owned by this rank, list the raw neighbor list built at the last
// rebuild, and box the periodic box (nil in domain-decomposed mode where
// ghosts carry the periodic images). The result buffers are reused if
// adequately sized; after the first call has warmed the arenas and
// scratch, a steady-state serial Compute performs no heap allocation.
//
// It is the one-frame case of ComputeBatch — the same team run, in frame
// slot 0.
func (ev *Evaluator[T]) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error {
	frame := [1]Frame{{Pos: pos, Types: types, Nloc: nloc, List: list, Box: box, Out: out}}
	return ev.ComputeBatch(frame[:])
}

// evalChunk runs embedding, descriptor, fitting and their backward passes
// for one chunk of same-type atoms, returning the chunk energy in double
// precision and filling atomEnergy and ndT rows for those atoms. opts
// carries the GEMM worker budget (serial when chunk-level parallelism is
// already using the cores). rT and ndT are the environment matrix and
// network-derivative buffers of the frame the chunk belongs to, so chunks
// of different frames share one worker sweep without sharing state.
//
//dp:noalloc
func (ev *Evaluator[T]) evalChunk(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], env *descriptor.EnvOut, rT, ndT []T, ci int, atoms []int, atomEnergy []float64) float64 {
	switch ev.strat {
	case StrategyPerAtom:
		//dp:allow noalloc the per-atom oracle keeps 2018 granularity and allocates by design
		return ev.evalChunkPerAtom(ctr, opts, ar, env, rT, ndT, ci, atoms, atomEnergy)
	case StrategyCompressed:
		return ev.evalChunkCompressed(ctr, opts, ws, ar, env, rT, ndT, ci, atoms, atomEnergy)
	}
	return ev.evalChunkExact(ctr, opts, ws, ar, env, rT, ndT, ci, atoms, atomEnergy)
}

// embedTileRows is the height of the exact operator's row tiles. A tile
// holds every layer's output and activation gradient plus the backward
// pass's gradients, about 4·Σwidths elements a row — 0.7 MB in float64 at
// the paper's 25-50-100, inside L2 — and has to be tall enough to keep the
// strip kernels' per-call costs small on narrow nets. One constant serves
// both: the sweep in DESIGN.md ("Fused exact operator") is flat from 64 to
// 256 rows at paper widths and still falling at 64 on the 4-8-16 nets of
// the rank and serving workloads.
const embedTileRows = 128

// tileSeg is one atom's share of a row tile: n consecutive real rows of
// the atom's neighbor-type section starting at slot k0. a indexes the
// chunk's atom list.
type tileSeg struct{ a, k0, n int }

// rowWalk enumerates the real neighbor rows of one (chunk, neighbor-type
// section) in atom-major slot order, a tile at a time. Rows at and beyond
// an atom's env.Count are never visited: they have R~ = 0 exactly, add
// nothing to the descriptor, and the force and virial products
// (descriptor.ProdRows) stop at the same count, so their ndT rows are
// neither written nor read.
type rowWalk[T tensor.Float] struct {
	env   *descriptor.EnvOut
	atoms []int
	tj    int
	a, k  int // cursor: the next row is slot k of atoms[a]
}

// section restarts the walk at the first row of section tj.
func (w *rowWalk[T]) section(tj int) { w.tj, w.a, w.k = tj, 0, 0 }

// rows returns the segment's rows of a frame buffer laid out like the
// environment matrix (nloc x stride x 4): rT or ndT.
func (w *rowWalk[T]) rows(frame []T, sg tileSeg) []T {
	base := (w.atoms[sg.a]*w.env.Stride + w.env.Fmt.SelOff[w.tj] + sg.k0) * 4
	return frame[base : base+4*sg.n]
}

// next gathers the s-inputs of the next len(s) rows from the environment
// rows rT (fewer at the end of the section, none once it is exhausted) and
// appends the atom segments they belong to to segs[:0].
func (w *rowWalk[T]) next(rT, s []T, segs []tileSeg) (int, []tileSeg) {
	segs = segs[:0]
	rows := 0
	nt := len(w.env.Fmt.Sel)
	for rows < len(s) && w.a < len(w.atoms) {
		left := int(w.env.Count[w.atoms[w.a]*nt+w.tj]) - w.k
		if left == 0 {
			w.a, w.k = w.a+1, 0
			continue
		}
		sg := tileSeg{w.a, w.k, min(left, len(s)-rows)}
		for i, r := 0, w.rows(rT, sg); i < sg.n; i++ {
			s[rows+i] = r[4*i]
		}
		segs = append(segs, sg)
		rows += sg.n
		w.k += sg.n
	}
	return rows, segs
}

// evalChunkExact is the exact strategy's chunk body: one fused operator
// from the frame's environment rows to the descriptor items and, after
// the fitting net, straight back into ndT (Sec. 5.3's operator fusion, as
// the paper's successors apply it to the embedding output — arXiv
// 2004.11658 Sec. 3.2-3.3). Per neighbor-type section the chunk's real
// rows are walked in atom-major slot order in tiles of embedTileRows that
// span atoms; each tile runs the three embedding layers while it is
// cache-resident and is contracted with its environment rows before the
// next tile overwrites it. No embedding matrix, no gathered copy of R~ and
// no padding row exists at any point; the backward pass recomputes the
// tiles instead of reading a stored trace back (FLOPs for bytes):
//
//	forward, per tile    G = embed(s)                  tile x m, no tanh gradient kept
//	                     T_a += Σ_k G_k (x) R~_k       ContractForward per atom segment
//	D_a, E, dT_a                                       fitChunk, one ChunkSize-row batch
//	backward, per tile   G = embed(s)                  recomputed, traced
//	                     dG_k = R~_k dT_a              ContractOuter
//	                     ds = embed'(dG)               nn.Net.Backward; with parameter
//	                                                   gradients under ComputeWithGrads
//	                     ndT_k = (G_k dT_a, + ds_k on column 0)   ContractRows
//
// The operator works on 4 x m channel-minor items, one per atom of the
// chunk, and fitChunk turns them into their gradient in place. Every
// atom's rows accumulate in section-then-slot order wherever
// a tile edge falls, and a row's path through the strip kernels does not
// depend on the other rows of its tile, so results are bit-identical
// across workers, batch sizes, ranks and coalesce sizes as before.
func (ev *Evaluator[T]) evalChunkExact(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], env *descriptor.EnvOut, rT, ndT []T, ci int, atoms []int, atomEnergy []float64) float64 {
	defer ar.Reset()
	cfg := &ev.cfg
	m := cfg.M()
	nt := cfg.NumTypes()
	walk := rowWalk[T]{env: env, atoms: atoms}

	items := ar.Take(len(atoms) * 4 * m)
	for tj := 0; tj < nt; tj++ {
		walk.section(tj)
		ev.embedForward(ctr, opts, ws, ar, &walk, ev.embed[ci][tj], rT, items)
	}
	chunkE := ev.fitChunk(ctr, opts, ws, ar, ci, atoms, items, atomEnergy)
	for tj := 0; tj < nt; tj++ {
		walk.section(tj)
		embGr, _ := ev.gradsFor(ci, tj)
		ev.embedBackward(ctr, opts, ws, ar, &walk, ev.embed[ci][tj], embGr, rT, items, ndT)
	}
	return chunkE
}

// embedForward pushes one section's rows through the embedding net tile by
// tile and contracts each tile into the chunk's descriptor items.
func (ev *Evaluator[T]) embedForward(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], walk *rowWalk[T], net *nn.Net[T], rT, items []T) {
	m := ev.cfg.M()
	section := ar.Mark()
	s := ar.TakeUninit(embedTileRows)
	tile := ar.Mark()
	for {
		var rows int
		if rows, ws.segs = walk.next(rT, s, ws.segs); rows == 0 {
			ar.Rewind(section)
			return
		}
		g := net.ForwardInto(&ws.embTr, ctr, opts, ar, tensor.MatrixFrom(rows, 1, s[:rows]), false).Out().Data
		start := ctr.Now()
		r := 0
		for _, sg := range ws.segs {
			descriptor.ContractForward(g[r*m:(r+sg.n)*m], walk.rows(rT, sg), m, items[sg.a*4*m:(sg.a+1)*4*m])
			r += sg.n
		}
		ctr.Observe(perf.CatCUSTOM, start, int64(rows)*int64(m)*embedContractForwardFLOPs)
		ar.Rewind(tile)
	}
}

// embedBackward recomputes one section's tiles, forms each tile's output
// gradient from the chunk's dT items, runs the net's backward pass on it
// (accumulating parameter gradients into grads when non-nil) and writes
// the rows' environment gradient into ndT.
func (ev *Evaluator[T]) embedBackward(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], walk *rowWalk[T], net *nn.Net[T], grads *nn.Grads[T], rT, items, ndT []T) {
	m := ev.cfg.M()
	section := ar.Mark()
	s := ar.TakeUninit(embedTileRows)
	dG := ar.TakeUninit(embedTileRows * m)
	buf := ar.TakeUninit(max(4*m, embedTileRows/2*8))
	tile := ar.Mark()
	for {
		var rows int
		if rows, ws.segs = walk.next(rT, s, ws.segs); rows == 0 {
			ar.Rewind(section)
			return
		}
		tr := net.ForwardInto(&ws.embTr, ctr, opts, ar, tensor.MatrixFrom(rows, 1, s[:rows]), true)
		g := tr.Out().Data
		start := ctr.Now()
		r := 0
		for _, sg := range ws.segs {
			dTa, gs := items[sg.a*4*m:(sg.a+1)*4*m], g[r*m:(r+sg.n)*m]
			descriptor.ContractOuter(walk.rows(rT, sg), dTa, m, dG[r*m:(r+sg.n)*m], buf)
			descriptor.ContractRows(gs, dTa, sg.n, m, walk.rows(ndT, sg), buf)
			r += sg.n
		}
		ctr.Observe(perf.CatCUSTOM, start, int64(rows)*int64(m)*embedContractBackwardFLOPs)
		ds := net.Backward(ctr, opts, ar, tr, tensor.MatrixFrom(rows, m, dG[:rows*m]), grads).Data
		r = 0
		for _, sg := range ws.segs {
			nd := walk.rows(ndT, sg)
			for i := 0; i < sg.n; i++ {
				nd[4*i] += ds[r+i]
			}
			r += sg.n
		}
		ar.Rewind(tile)
	}
}

// fitChunk is the part of a chunk both fused operators share. It takes the
// chunk's descriptor items as the operators accumulate them — nA x 4 x m,
// channel-minor, unscaled — and overwrites them with their gradient:
//
//	T_a  = items_a / N                                in place
//	D_a  = T_a (T_a[:ax])^T        m x ax             descriptor.ContractDescriptor
//	E    = fit(D)                  nA x 1
//	dT_a = (dD_a T_a[:ax] (+ head: dD_a^T T_a)) / N   descriptor.ContractDescriptorBackward
//
// The products are depth 4 and ax, far below every GEMM tile, so they run
// as register loops, charged under CUSTOM with the FLOPs of the GEMMs they
// replaced. It fills atomEnergy for the chunk's atoms and returns the
// chunk energy.
func (ev *Evaluator[T]) fitChunk(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], ci int, atoms []int, items []T, atomEnergy []float64) float64 {
	cfg := &ev.cfg
	m, ax, dim, nA := cfg.M(), cfg.MAxis, cfg.DescriptorDim(), len(atoms)
	invN := T(1.0 / float64(cfg.Stride()))
	flops := 2 * int64(nA) * int64(m) * int64(ax) * 4

	dChunk := ar.TakeMatrixUninit(nA, dim)
	start := ctr.Now()
	for a := 0; a < nA; a++ {
		t := items[a*4*m : (a+1)*4*m]
		for i := range t {
			t[i] *= invN
		}
		descriptor.ContractDescriptor(t, m, ax, dChunk.Data[a*dim:(a+1)*dim])
	}
	ctr.Observe(perf.CatCUSTOM, start, flops)

	// Fitting net forward/backward over the chunk batch.
	fitTr := ev.fit[ci].ForwardInto(&ws.fitTr, ctr, opts, ar, dChunk, true)
	eOut := fitTr.Out()
	var chunkE float64
	for a, atom := range atoms {
		e := float64(eOut.Data[a])
		atomEnergy[atom] = e
		chunkE += e
	}
	ones := ar.TakeMatrixUninit(nA, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	_, fitGr := ev.gradsFor(ci, 0)
	dD := ev.fit[ci].Backward(ctr, opts, ar, fitTr, ones, fitGr)

	buf := ar.TakeUninit(8 * ax)
	start = ctr.Now()
	for a := 0; a < nA; a++ {
		descriptor.ContractDescriptorBackward(dD.Data[a*dim:(a+1)*dim], m, ax, invN, items[a*4*m:(a+1)*4*m], buf)
	}
	ctr.Observe(perf.CatCUSTOM, start, 2*flops)
	return chunkE
}

// growArenas resizes any arena whose last evaluation overflowed, so the
// next step runs allocation-free (the paper's init-time GPU memory trunk).
func (ev *Evaluator[T]) growArenas() {
	for i, a := range ev.arenas {
		if p := a.MaxPeak(); p > a.Cap() {
			ev.arenas[i] = tensor.NewArena[T](p + p/4)
		}
	}
}

// shareOrConvert aliases the master float64 network when T is float64 (so
// the trainer's weight updates are visible without re-deriving the
// evaluator) and converts to float32 otherwise.
func shareOrConvert[T tensor.Float](n *nn.Net[float64]) *nn.Net[T] {
	if same, ok := any(n).(*nn.Net[T]); ok {
		return same
	}
	return nn.ConvertNet[T](n)
}
