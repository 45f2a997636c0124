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

// Frame describes one independent system: the arguments of one Compute
// call, plus the Result its energies, forces and virial land in. It is
// Engine.ComputeBatch's input.
type Frame struct {
	Pos   []float64
	Types []int
	Nloc  int
	List  *neighbor.List
	Box   *neighbor.Box
	Out   *Result
}

// frameState is the persistent state of the force call: the frame's
// environment, precision-converted rows, network derivative, chunk list
// and block partials stay alive through the stages, and are reused across
// calls, so a steady stream of equally-shaped frames allocates nothing
// after warmup.
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
	// order is the sweep's claim list: indices into jobs, tallest first.
	order  []int
	chunkE []float64
	// partials holds the descriptor.ProdBlocks private force buffers of
	// 3*nall the products scatter into; blocks what each block reports.
	partials []float64
	blocks   [descriptor.ProdBlocks]blockOut
}

// blockOut is what one atom block hands the coordinating goroutine: stage
// 1's statistics, error and (when a counter is attached) how its time
// divided between the operator's two passes and the conversion; stage 3's
// visited slots and partial virial.
type blockOut struct {
	env               descriptor.RowStats
	err               error
	envTime, convTime time.Duration
	slots             int64
	virial            [9]float64
}

// The stages of one force call, each with its own claim cursor. Block
// stages have ProdBlocks jobs, the sweep one per chunk.
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

// Compute evaluates energy, forces and virial. pos holds 3*nall positions
// (locals first, then ghosts), types their types, nloc the number of local
// atoms owned by this rank, list the raw neighbor list built at the last
// rebuild, and box the periodic box (nil in domain-decomposed mode where
// ghosts carry the periodic images). The result buffers are reused if
// adequately sized; after the first call has warmed the arenas and
// scratch, a steady-state serial Compute performs no heap allocation.
//
// The whole call runs on the evaluator's worker budget inside ONE goroutine
// fan-out (team): every member claims jobs of each stage from that stage's
// atomic cursor and meets the others at a barrier before the next,
//
//	stage 1a (atom block)    format rows, count real rows  row-independent
//	         (member 0)      row counts -> offsets         buffers grown to the frame's rows
//	stage 1b (atom block)    fill rows + ConvertRows       row-independent
//	stage 2  (chunk)         embedding, fitting, backward  self-contained per chunk, tallest first
//	stage 3  (atom block)    force/virial products         into the block's own partials
//	stage 4  (coord block)   partials summed               in block order
//
// Results are bit-identical at every worker count: chunks are cut by the
// frame alone (chunkJobs), stages 1, 2 and 4 write every output element
// from exactly one job whose computation does not depend on who runs it
// or when (the claim order of planSweep only schedules), and the one
// order-dependent reduction — the force/virial scatter of stage 3 — is
// cut into descriptor.ProdBlocks blocks, a constant, so how its sums
// associate is a function of the frame alone. Workers = 1 runs the same
// jobs in the same cut on the calling goroutine. The environment rows are
// stored ragged, so where a block's rows land is known only once every
// block has counted its own: stage 1 is two block stages around member
// 0's prefix sum.
//
// On error, out is in an unspecified intermediate state. Compute is
// single-goroutine; concurrent calls go through an Engine.
func (ev *Evaluator[T]) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error {
	// Serial preamble: whatever can refuse the frame first, so that no
	// Scratch is left between Begin and Rows; then the buffers sized for
	// the team.
	if err := ev.planSweep(types, nloc); err != nil {
		return err
	}
	fs := &ev.frame
	fs.pos, fs.list, fs.box = pos, list, box
	fs.env = fs.sc.Begin(ev.dcfg, list)
	fs.chunkE = tensor.Resize(fs.chunkE, len(fs.jobs))
	fs.partials = tensor.Resize(fs.partials, descriptor.ProdBlocks*len(pos))
	out.AtomEnergy = tensor.Resize(out.AtomEnergy, nloc)
	out.Force = tensor.Resize(out.Force, len(pos))
	fs.atomEnergy, fs.force = out.AtomEnergy, out.Force

	// One fan-out: the calling goroutine is member 0 and coordinates.
	ev.sweepers = ev.splitBudget(len(fs.jobs))
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

	// Reductions in fixed orders: the chunk energies, the blocks' virials,
	// then the repulsion prior on top.
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
	repulsionEnergy(ev.Counter, ev.cfg.RepA, ev.cfg.RepRcut, pos, nloc, list, box, out)
	ev.growArenas()
	return nil
}

// member is the body of team member w: the five stages in order, jobs
// claimed from each stage's cursor, a barrier between stages. Member 0 runs
// on the calling goroutine and coordinates: it turns stage 1a's block
// results into the call's error and the row offsets, and makes the
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
	fs := &ev.frame

	start := ev.Counter.Now()
	for b := ev.claim(stageEnv); b < descriptor.ProdBlocks; b = ev.claim(stageEnv) {
		ev.envBlock(ws, b)
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
	for b := ev.claim(stageFill); b < descriptor.ProdBlocks; b = ev.claim(stageFill) {
		ev.fillBlock(b)
	}
	ev.bar.wait()
	if w == 0 {
		ev.observeEnv(start)
	}

	if w < ev.sweepers {
		ev.sweep(w)
	}
	ev.bar.wait()

	start = ev.Counter.Now()
	for b := ev.claim(stageProd); b < descriptor.ProdBlocks; b = ev.claim(stageProd) {
		ev.prodBlock(b)
	}
	ev.bar.wait()
	for b := ev.claim(stageReduce); b < descriptor.ProdBlocks; b = ev.claim(stageReduce) {
		lo, hi := descriptor.BlockRange(len(fs.force), b)
		descriptor.SumPartials(fs.partials, fs.force, lo, hi)
	}
	if w == 0 {
		var slots int64
		for b := range fs.blocks {
			slots += fs.blocks[b].slots
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
// block b's atoms — rows formatted, real rows counted.
//
//dp:noalloc
func (ev *Evaluator[T]) envBlock(ws *evalScratch[T], b int) {
	fs := &ev.frame
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

// collectEnv closes stage 1a on the coordinator: the lowest failing atom
// is the error at every worker count — blocks are ascending atom ranges
// and each stops at its first failure — and otherwise the blocks' dropped
// neighbors become the table's overflow count, the row counts become
// offsets, and every buffer laid out like the rows is grown to them.
func (ev *Evaluator[T]) collectEnv() error {
	fs := &ev.frame
	for b := range fs.blocks {
		out := &fs.blocks[b]
		if out.err != nil {
			return fmt.Errorf("core: %w", out.err)
		}
		fs.env.Fmt.Overflow += out.env.Dropped
	}
	rows := fs.sc.Pack()
	fs.rT = tensor.Grow(fs.rT, 4*rows)
	fs.ndT = tensor.Grow(fs.ndT, 4*rows)
	return nil
}

// fillBlock is one stage-1b job: the Environment operator's second pass
// and the precision conversion on block b's atoms, into the block's own
// rows of the shared buffers.
//
//dp:noalloc
func (ev *Evaluator[T]) fillBlock(b int) {
	fs := &ev.frame
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
	fs := &ev.frame
	var entries int64
	var envTime, convTime time.Duration
	for b := range fs.blocks {
		out := &fs.blocks[b]
		entries += out.env.Entries
		envTime += out.envTime
		convTime += out.convTime
	}
	wall := time.Since(start)
	conv := time.Duration(float64(wall) * float64(convTime) / float64(max(1, envTime+convTime)))
	ctr.AddTime(perf.CatSLICE, conv)
	ctr.AddTime(perf.CatCUSTOM, wall-conv)
	ctr.AddFLOPs(descriptor.EnvFLOPs(fs.env, entries))
}

// prodBlock is one stage-3 job: block b's center atoms scattered into the
// block's private force buffer and virial.
//
//dp:noalloc
func (ev *Evaluator[T]) prodBlock(b int) {
	fs := &ev.frame
	out := &fs.blocks[b]
	n3 := len(fs.force)
	part := fs.partials[b*n3 : (b+1)*n3]
	clear(part)
	out.virial = [9]float64{}
	lo, hi := descriptor.BlockRange(fs.env.Nloc, b)
	out.slots = descriptor.ProdRows(fs.ndT, fs.env, lo, hi, part, &out.virial)
}

// planSweep is the part of the force call's preamble that can refuse a
// frame: it cuts the frame into its chunks (the jobs, in type-then-index
// order — the order chunkE is summed in) and orders the sweep's claim
// list tallest chunk first. The cursor then hands out the
// longest-processing-time schedule: the short chunks fill in behind
// whichever member finishes early, where job order would leave one member
// holding the last tall chunk. Ties keep job order, and nothing here reads
// the worker budget.
func (ev *Evaluator[T]) planSweep(types []int, nloc int) error {
	fs := &ev.frame
	var err error
	if fs.jobs, err = chunkJobs(fs.jobs[:0], fs.byType, types, nloc, ev.cfg.ChunkSize); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	fs.order = fs.order[:0]
	for ji := range fs.jobs {
		fs.order = append(fs.order, ji)
	}
	slices.SortStableFunc(fs.order, func(a, b int) int { return len(fs.jobs[b].atoms) - len(fs.jobs[a].atoms) })
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

// sweep is stage 2 on team member w: claim chunks from the stage's cursor
// in the claim list's order until none are left, evaluating each in member
// w's arena and scratch. Every chunk's computation is self-contained and
// deterministic, so results do not depend on which member claims it.
func (ev *Evaluator[T]) sweep(w int) {
	ws, ar := ev.scratch[w], ev.arenas[w]
	fs := &ev.frame
	for k := ev.claim(stageSweep); k < len(fs.order); k = ev.claim(stageSweep) {
		ji := fs.order[k]
		j := fs.jobs[ji]
		fs.chunkE[ji] = ev.evalChunk(ev.Counter, ws, ar, fs.env, fs.rT, fs.ndT, j.ci, j.atoms, fs.atomEnergy)
	}
}

// ComputeBatch evaluates independent frames one after another on ONE
// borrowed evaluator: each frame is one Compute call, so its results are
// bitwise a per-frame Compute's. It is kept because the benchmark harness
// (bench/serve.go) times it; new code calls Compute. A frame without a
// Result is an error, found before any frame is evaluated.
func (e *Engine) ComputeBatch(frames []Frame) error {
	for i := range frames {
		if frames[i].Out == nil {
			return fmt.Errorf("core: frame %d has no Result", i)
		}
	}
	c, err := e.acquire()
	if err != nil {
		return err
	}
	defer e.release(c)
	for i := range frames {
		f := &frames[i]
		if err := c.Compute(f.Pos, f.Types, f.Nloc, f.List, f.Box, f.Out); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return nil
}
