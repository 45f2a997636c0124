package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// Frame describes one independent system of an evaluation: the arguments
// of one Compute call, plus the Result the frame's energies, forces and
// virial land in. Frames in one batch share nothing but the model.
type Frame struct {
	Pos   []float64
	Types []int
	Nloc  int
	List  *neighbor.List
	Box   *neighbor.Box
	Out   *Result
}

// frameState is the persistent per-frame-slot state of the force call:
// every frame of a batch keeps its environment, precision-converted rows,
// network derivative, chunk list and block partials alive through the
// stages. Slots are reused across calls (slot i serves frame i; a plain
// Compute is frame 0), so a steady stream of equally-shaped batches
// allocates nothing after warmup.
type frameState[T tensor.Float] struct {
	// The caller's inputs and output buffers, for the team: positions,
	// list and box feed the stage-1 blocks, atomEnergy the sweep, force the
	// stage-4 sums.
	pos               []float64
	list              *neighbor.List
	box               *neighbor.Box
	atomEnergy, force []float64

	sc  descriptor.Scratch
	env *descriptor.EnvOut
	// rT and ndT are laid out like env.R, a row per real row: rT is the
	// conversion of env.R, ndT written whole by the chunk bodies and read
	// by the products, so neither is ever cleared.
	rT     []T
	ndT    []T
	byType [][]int
	jobs   []chunkJob
	chunkE []float64
	// partials holds the descriptor.ProdBlocks private force buffers of
	// 3*nall the products scatter into; blocks what each block reports.
	partials []float64
	blocks   [descriptor.ProdBlocks]blockOut
}

// blockOut is what one atom block of a frame hands the coordinating
// goroutine: stage 1's statistics, error and (when a counter is attached)
// how its time divided between the operator's two passes and the
// conversion; stage 3's visited slots and partial virial.
type blockOut struct {
	env               descriptor.RowStats
	err               error
	envTime, convTime time.Duration
	slots             int64
	virial            [9]float64
}

func newFrameState[T tensor.Float](nt int) *frameState[T] {
	return &frameState[T]{byType: make([][]int, nt)}
}

// batchJob addresses one chunk of one frame in the cross-frame sweep; rows
// is the chunk's height, the key of the claim order.
type batchJob struct {
	fi, ji, rows int
}

// The stages of one force call, each with its own claim cursor. Block
// stages have ProdBlocks jobs per frame, the sweep one per chunk.
const (
	stageEnv    = iota // Environment rows formatted and counted on a block's atoms
	stageFill          // Environment rows filled + ConvertRows on a block's atoms
	stageSweep         // the chunk sweep
	stageProd          // force and virial products of a block into its partials
	stageReduce        // the partials summed in block order, a block of coordinates each
	numStages
)

// barrier is the meeting point between the stages of one force call. It is
// reusable (generation-counted) and parks its waiters, so the idle members
// of a team whose sweep runs serially (ComputeWithGrads) cost no CPU.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int // team size
	arrived int
	gen     uint
}

//dp:noalloc
func (b *barrier) wait() {
	if b.n == 1 {
		return
	}
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen := b.gen; gen == b.gen; {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// ComputeBatch evaluates every frame in one call — the one evaluation path:
// Compute is its one-frame case, and the serving path coalesces concurrent
// small requests into it (ISSUE 7) so they share one worker sweep instead
// of each paying its own under-filled one.
//
// The whole call runs on the evaluator's worker budget inside ONE goroutine
// fan-out (team): every member claims jobs of each stage from that stage's
// atomic cursor and meets the others at a barrier before the next,
//
//	stage 1a (frame, atom block)   format rows, count real rows  row-independent
//	         (member 0)            row counts -> offsets         buffers grown to the frame's rows
//	stage 1b (frame, atom block)   fill rows + ConvertRows       row-independent
//	stage 2  (frame, chunk)        embedding, fitting, backward  self-contained per chunk, tallest first
//	stage 3  (frame, atom block)   force/virial products         into the block's own partials
//	stage 4  (frame, coord block)  partials summed               in block order
//
// Results are bit-identical at every batch size and worker count: chunks
// never straddle frames and are cut by the frame alone (chunkJobs), stages
// 1, 2 and 4 write every output element from exactly one job whose
// computation does not depend on who runs it or when (the claim order of
// planSweep only schedules), and the one order-dependent reduction — the
// force/virial scatter of stage 3 — is cut into descriptor.ProdBlocks
// blocks, a constant, so how its sums associate is a function of the frame
// alone. Workers = 1 runs the same jobs in the same cut on the calling
// goroutine. The environment rows are stored ragged, so where a block's
// rows land is known only once every block has counted its own: stage 1
// is two block stages around member 0's prefix sum.
//
// On error, the frames' Result buffers are in an unspecified intermediate
// state. ComputeBatch is single-goroutine; concurrent batches go through
// an Engine.
func (ev *Evaluator[T]) ComputeBatch(frames []Frame) error {
	ctr := ev.Counter

	// Serial preamble: whatever can refuse a frame first, so that no
	// Scratch is left between Begin and Rows; then the buffers of every
	// frame slot sized for the team.
	if err := ev.planSweep(frames); err != nil {
		return err
	}
	for fi := range frames {
		f := &frames[fi]
		fs := ev.frames[fi]
		fs.pos, fs.list, fs.box = f.Pos, f.List, f.Box
		fs.env = fs.sc.Begin(ev.dcfg, f.List)
		fs.chunkE = tensor.Resize(fs.chunkE, len(fs.jobs))
		fs.partials = tensor.Resize(fs.partials, descriptor.ProdBlocks*len(f.Pos))
		f.Out.AtomEnergy = tensor.Resize(f.Out.AtomEnergy, f.Nloc)
		f.Out.Force = tensor.Resize(f.Out.Force, len(f.Pos))
		fs.atomEnergy, fs.force = f.Out.AtomEnergy, f.Out.Force
	}

	// One fan-out: the calling goroutine is member 0 and coordinates.
	ev.nframes = len(frames)
	ev.sweepers = ev.splitBudget(len(ev.batchJobs))
	for st := range ev.cursors {
		ev.cursors[st].Store(0)
	}
	ev.failed.Store(false)
	for w := 1; w < len(ev.arenas); w++ {
		ev.wg.Add(1)
		go ev.member(w)
	}
	err := ev.member(0)
	ev.wg.Wait()
	if err != nil {
		return err
	}

	// Per-frame reductions in fixed orders: the chunk energies, the blocks'
	// virials, then the repulsion prior on top.
	for fi := range frames {
		f := &frames[fi]
		fs := ev.frames[fi]
		out := f.Out
		out.Energy = 0
		for _, e := range fs.chunkE {
			out.Energy += e
		}
		out.Virial = [9]float64{}
		for b := range fs.blocks {
			for x, v := range fs.blocks[b].virial {
				out.Virial[x] += v
			}
		}
		repulsionEnergy(ctr, ev.cfg.RepA, ev.cfg.RepRcut, f.Pos, f.Nloc, f.List, f.Box, out)
	}
	ev.growArenas()
	return nil
}

// member is the body of team member w: the five stages in order, jobs
// claimed from each stage's cursor, a barrier between stages. Member 0 runs
// on the calling goroutine and coordinates: it turns stage 1a's block
// results into the call's error and the frames' row offsets, and makes the
// customized operators' two perf observations — the wall time of the stage
// and the FLOPs summed over the blocks, so the category times keep their
// meaning and the FLOP count repeats exactly at every worker count.
//
//dp:noalloc
func (ev *Evaluator[T]) member(w int) error {
	if w > 0 {
		defer ev.wg.Done()
	}
	ws := ev.scratch[w]
	nblk := ev.nframes * descriptor.ProdBlocks

	start := ev.Counter.Now()
	for bi := ev.claim(stageEnv); bi < nblk; bi = ev.claim(stageEnv) {
		ev.envBlock(ws, bi/descriptor.ProdBlocks, bi%descriptor.ProdBlocks)
	}
	ev.bar.wait()
	if w == 0 {
		if err := ev.collectEnv(); err != nil {
			return err
		}
	} else if ev.failed.Load() {
		return nil
	}
	ev.bar.wait()
	for bi := ev.claim(stageFill); bi < nblk; bi = ev.claim(stageFill) {
		ev.fillBlock(bi/descriptor.ProdBlocks, bi%descriptor.ProdBlocks)
	}
	ev.bar.wait()
	if w == 0 {
		ev.observeEnv(start)
	}

	// The sweep is where the cross-request amortization happens: a handful
	// of small frames fill the team (and one evaluator's caches) the way
	// one large system would.
	if w < ev.sweepers {
		ev.sweep(w)
	}
	ev.bar.wait()

	start = ev.Counter.Now()
	for bi := ev.claim(stageProd); bi < nblk; bi = ev.claim(stageProd) {
		ev.prodBlock(bi/descriptor.ProdBlocks, bi%descriptor.ProdBlocks)
	}
	ev.bar.wait()
	for bi := ev.claim(stageReduce); bi < nblk; bi = ev.claim(stageReduce) {
		fs := ev.frames[bi/descriptor.ProdBlocks]
		lo, hi := descriptor.BlockRange(len(fs.force), bi%descriptor.ProdBlocks)
		descriptor.SumPartials(fs.partials, fs.force, lo, hi)
	}
	if w == 0 {
		var slots int64
		for _, fs := range ev.frames[:ev.nframes] {
			for b := range fs.blocks {
				slots += fs.blocks[b].slots
			}
		}
		ev.Counter.Observe(perf.CatCUSTOM, start, slots*(descriptor.ProdForceFLOPsPerEntry+descriptor.ProdVirialFLOPsPerEntry))
	}
	return nil
}

//dp:noalloc
func (ev *Evaluator[T]) claim(stage int) int {
	return int(ev.cursors[stage].Add(1)) - 1
}

// envBlock is one stage-1a job: the Environment operator's first pass on
// block b's atoms of frame fi — rows formatted, real rows counted.
//
//dp:noalloc
func (ev *Evaluator[T]) envBlock(ws *evalScratch[T], fi, b int) {
	fs := ev.frames[fi]
	out := &fs.blocks[b]
	lo, hi := descriptor.BlockRange(fs.env.Nloc, b)
	start := ev.Counter.Now()
	out.env, out.err = fs.sc.Rows(&ws.rows, ev.dcfg, fs.pos, fs.list, fs.box, lo, hi)
	if out.err != nil {
		ev.failed.Store(true)
		return
	}
	if ev.Counter != nil {
		out.envTime = time.Since(start)
	}
}

// collectEnv closes stage 1a on the coordinator: the lowest failing
// (frame, atom) is the error at every worker count — blocks are ascending
// atom ranges and each stops at its first failure — and otherwise the
// blocks' dropped neighbors become the table's overflow count, the row
// counts become offsets, and every frame buffer laid out like the rows is
// grown to them.
func (ev *Evaluator[T]) collectEnv() error {
	for fi, fs := range ev.frames[:ev.nframes] {
		for b := range fs.blocks {
			out := &fs.blocks[b]
			if out.err != nil {
				return fmt.Errorf("core: frame %d: %w", fi, out.err)
			}
			fs.env.Fmt.Overflow += out.env.Dropped
		}
		rows := fs.sc.Pack()
		fs.rT = tensor.Grow(fs.rT, 4*rows)
		fs.ndT = tensor.Grow(fs.ndT, 4*rows)
	}
	return nil
}

// fillBlock is one stage-1b job: the Environment operator's second pass
// and the precision conversion on block b's atoms of frame fi, into the
// block's own rows of the frame's shared buffers.
//
//dp:noalloc
func (ev *Evaluator[T]) fillBlock(fi, b int) {
	fs := ev.frames[fi]
	out := &fs.blocks[b]
	lo, hi := descriptor.BlockRange(fs.env.Nloc, b)
	start := ev.Counter.Now()
	fs.sc.Fill(ev.dcfg, fs.pos, fs.box, lo, hi)
	mid := ev.Counter.Now()
	descriptor.ConvertRows(fs.env, fs.rT, lo, hi)
	if ev.Counter != nil {
		out.envTime += mid.Sub(start)
		out.convTime = time.Since(mid)
	}
}

// observeEnv makes stage 1's one perf observation: its wall time, divided
// between CUSTOM (Environment) and SLICE (ConvertRows) in the proportion
// the blocks measured, and the FLOPs summed over the blocks.
func (ev *Evaluator[T]) observeEnv(start time.Time) {
	ctr := ev.Counter
	if ctr == nil {
		return
	}
	var flops int64
	var envTime, convTime time.Duration
	for _, fs := range ev.frames[:ev.nframes] {
		var entries int64
		for b := range fs.blocks {
			out := &fs.blocks[b]
			entries += out.env.Entries
			envTime += out.envTime
			convTime += out.convTime
		}
		flops += descriptor.EnvFLOPs(fs.env, entries)
	}
	wall := time.Since(start)
	conv := time.Duration(float64(wall) * float64(convTime) / float64(max(1, envTime+convTime)))
	ctr.AddTime(perf.CatSLICE, conv)
	ctr.AddTime(perf.CatCUSTOM, wall-conv)
	ctr.AddFLOPs(flops)
}

// prodBlock is one stage-3 job: block b's center atoms of frame fi
// scattered into the block's private force buffer and virial.
//
//dp:noalloc
func (ev *Evaluator[T]) prodBlock(fi, b int) {
	fs := ev.frames[fi]
	out := &fs.blocks[b]
	n3 := len(fs.force)
	part := fs.partials[b*n3 : (b+1)*n3]
	clear(part)
	out.virial = [9]float64{}
	lo, hi := descriptor.BlockRange(fs.env.Nloc, b)
	out.slots = descriptor.ProdRows(fs.ndT, fs.env, lo, hi, part, &out.virial)
}

// planSweep is the part of the force call's preamble that can refuse a
// frame: it cuts every frame into its chunks (the frame slot's jobs, in
// type-then-index order — the order chunkE is summed in) and flattens them
// into the sweep's claim list, tallest chunk first. The cursor then hands
// out the longest-processing-time schedule: the short chunks fill in behind
// whichever member finishes early, where frame order would leave one member
// holding the last tall chunk. Ties keep (frame, job) order, and nothing
// here reads the worker budget.
func (ev *Evaluator[T]) planSweep(frames []Frame) error {
	for len(ev.frames) < len(frames) {
		ev.frames = append(ev.frames, newFrameState[T](ev.cfg.NumTypes()))
	}
	ev.batchJobs = ev.batchJobs[:0]
	for fi := range frames {
		f := &frames[fi]
		if f.Out == nil {
			return fmt.Errorf("core: frame %d has no Result", fi)
		}
		fs := ev.frames[fi]
		var err error
		if fs.jobs, err = chunkJobs(fs.jobs[:0], fs.byType, f.Types, f.Nloc, ev.cfg.ChunkSize); err != nil {
			return fmt.Errorf("core: frame %d: %w", fi, err)
		}
		for ji, j := range fs.jobs {
			ev.batchJobs = append(ev.batchJobs, batchJob{fi, ji, len(j.atoms)})
		}
	}
	slices.SortStableFunc(ev.batchJobs, func(a, b batchJob) int { return b.rows - a.rows })
	return nil
}

// The chunk cut's two constants. Both are properties of the code, like
// descriptor.ProdBlocks, and never of the team. An atom's bits do not
// depend on the height of the chunk it rides in (tensor picks kernel tiers
// by the layer, not the row count: TestChunkSizeBitIdentical), but the
// total energy sums the chunk energies in chunk order, so a cut that read
// Workers would give its last bits a dependence on the budget.
const (
	// sweepCut is the granularity of a split type's chunk count: a
	// multiple of it divides evenly over 2 and 4 sweepers, and with the
	// largest-first claim order leaves three within one chunk of even.
	sweepCut = 4
	// chunkAlign is the row granularity of a split type's chunk height: a
	// multiple of every strip height and of every NT tile's rows (2 on
	// AVX2, 4 on AVX-512), so only a type's last chunk runs a tail strip
	// or a staged NT tile.
	chunkAlign = 8
)

// chunkJobs groups the first nloc atoms by type into byType (one reusable
// index slice per type) and appends their chunks to jobs: runs of same-type
// atoms in index order, type by type. This is the one place chunk
// composition is decided — the evaluation sweep and the executed-shape FLOP
// model (Config.ExecutedFLOPs) both start here — and it is a function of
// (types, nloc, chunkSize) alone.
//
// A type that fits one chunk of chunkSize rows is one chunk. A larger one is
// cut for balance: into the smallest multiple of sweepCut chunks that keeps
// them within chunkSize, of equal height rounded up to a multiple of
// chunkAlign rows (and never above chunkSize), the last taking what is
// left — 432 hydrogens at chunkSize 256 are 112, 112, 112, 96 where whole
// chunks would be 256, 176.
func chunkJobs(jobs []chunkJob, byType [][]int, types []int, nloc, chunkSize int) ([]chunkJob, error) {
	for t := range byType {
		byType[t] = byType[t][:0]
	}
	for i := 0; i < nloc; i++ {
		t := types[i]
		if t < 0 || t >= len(byType) {
			return nil, fmt.Errorf("atom %d has type %d outside model", i, t)
		}
		byType[t] = append(byType[t], i)
	}
	for ci, atoms := range byType {
		h := chunkSize
		if n := len(atoms); n > chunkSize {
			whole := (n + chunkSize - 1) / chunkSize
			parts := (whole + sweepCut - 1) / sweepCut * sweepCut
			h = min(chunkSize, ((n+parts-1)/parts+chunkAlign-1)/chunkAlign*chunkAlign)
		}
		for lo := 0; lo < len(atoms); lo += h {
			jobs = append(jobs, chunkJob{ci, atoms[lo:min(lo+h, len(atoms))]})
		}
	}
	return jobs, nil
}

// splitBudget returns how many of the team's members (Workers, one arena
// each) sweep stage 2's njobs chunks: as many as there are chunks to keep
// busy. Every GEMM runs on the member that claimed its chunk, so the
// members beyond njobs idle through the sweep — a frame with fewer chunks
// than Workers leaves cores unused there. Parameter gradients accumulate
// into one shared ModelGrads, so ComputeWithGrads always sweeps serially
// (the trainer runs its frames in parallel instead). Stages 1, 3 and 4
// share nothing between jobs and always run on the whole team.
func (ev *Evaluator[T]) splitBudget(njobs int) int {
	if ev.grads != nil {
		return 1
	}
	return max(1, min(len(ev.arenas), njobs))
}

// sweep is stage 2 on team member w: claim (frame, chunk) jobs from the
// stage's cursor until none are left, evaluating each in member w's arena
// and scratch. Every chunk's computation is self-contained and
// deterministic, so results do not depend on which member claims it.
func (ev *Evaluator[T]) sweep(w int) {
	ws, ar := ev.scratch[w], ev.arenas[w]
	for bi := ev.claim(stageSweep); bi < len(ev.batchJobs); bi = ev.claim(stageSweep) {
		bj := ev.batchJobs[bi]
		fs := ev.frames[bj.fi]
		j := fs.jobs[bj.ji]
		fs.chunkE[bj.ji] = ev.evalChunk(ev.Counter, ws, ar, fs.env, fs.rT, fs.ndT, j.ci, j.atoms, fs.atomEnergy)
	}
}

// ComputeBatch evaluates a batch of independent frames on ONE borrowed
// evaluator — the engine-level seam the cross-request micro-batcher
// (internal/serve) coalesces concurrent small requests through.
// Goroutine-safe like Compute; results are bit-identical to per-frame
// Compute calls at every batch size (see Evaluator.ComputeBatch and
// BaselineEvaluator.ComputeBatch).
func (e *Engine) ComputeBatch(frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	c, err := e.acquire()
	if err != nil {
		return err
	}
	defer e.release(c)
	return c.ComputeBatch(frames)
}
