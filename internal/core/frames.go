package core

import (
	"fmt"
	"sync"

	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
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

// frameState is the persistent per-frame-slot state of the sweep: every
// frame of a batch keeps its environment, precision-converted rows,
// network derivative and chunk list alive through the shared chunk sweep.
// Slots are reused across calls (slot i serves frame i; a plain Compute
// is frame 0), so a steady stream of equally-shaped batches allocates
// nothing after warmup.
type frameState[T tensor.Float] struct {
	sc     descriptor.Scratch
	env    *descriptor.EnvOut
	rT     []T
	ndT    []T
	nd64   []float64
	byType [][]int
	jobs   []chunkJob
	chunkE []float64
	// atomEnergy aliases the frame's Out.AtomEnergy for the sweep workers.
	atomEnergy []float64
}

func newFrameState[T tensor.Float](nt int) *frameState[T] {
	return &frameState[T]{byType: make([][]int, nt)}
}

// batchJob addresses one chunk of one frame in the cross-frame sweep.
type batchJob struct {
	fi, ji int
}

// ComputeBatch evaluates every frame in one call, fanning the chunks of
// ALL frames over the evaluator's worker budget as a single sweep — the
// one evaluation path: Compute is its one-frame case, and the serving
// path coalesces concurrent small requests into it (ISSUE 7) so they share
// one worker sweep instead of each paying its own under-filled one.
//
// Results are bit-identical at every batch size and worker count: chunks
// never straddle frames (each frame is grouped, chunked and reduced in its
// own buffers), every chunk's computation is self-contained and
// deterministic, and each frame's energy reduction and force/virial
// operators run serially per frame in a fixed order. Only the scheduling
// of chunks across workers changes.
//
// On error, the frames' Result buffers are in an unspecified intermediate
// state. ComputeBatch is single-goroutine; concurrent batches go through
// an Engine.
func (ev *Evaluator[T]) ComputeBatch(frames []Frame) error {
	ctr := ev.Counter
	nt := ev.cfg.NumTypes()
	stride := ev.cfg.Stride()
	for len(ev.frames) < len(frames) {
		ev.frames = append(ev.frames, newFrameState[T](nt))
	}

	// Stage 1 — per-frame preamble into each frame slot's own buffers:
	// environment, precision conversion, grouping by type, chunk-job
	// assembly, output sizing.
	ev.batchJobs = ev.batchJobs[:0]
	for fi := range frames {
		f := &frames[fi]
		if f.Out == nil {
			return fmt.Errorf("core: frame %d has no Result", fi)
		}
		fs := ev.frames[fi]
		env, err := fs.sc.Environment(ctr, ev.dcfg, f.Pos, f.Types, f.List, f.Box)
		if err != nil {
			return fmt.Errorf("core: frame %d: %w", fi, err)
		}
		fs.env = env
		fs.rT = descriptor.ConvertR(ctr, env, fs.rT)
		fs.ndT = tensor.Resize(fs.ndT, f.Nloc*stride*4)
		clear(fs.ndT)
		if fs.jobs, err = chunkJobs(fs.jobs[:0], fs.byType, f.Types, f.Nloc, ev.cfg.ChunkSize); err != nil {
			return fmt.Errorf("core: frame %d: %w", fi, err)
		}
		for ji := range fs.jobs {
			ev.batchJobs = append(ev.batchJobs, batchJob{fi, ji})
		}
		nall := len(f.Pos) / 3
		f.Out.AtomEnergy = tensor.Resize(f.Out.AtomEnergy, f.Nloc)
		f.Out.Force = tensor.Resize(f.Out.Force, 3*nall)
		clear(f.Out.Force)
		fs.atomEnergy = f.Out.AtomEnergy
		fs.chunkE = tensor.Resize(fs.chunkE, len(fs.jobs))
	}

	// Stage 2 — one sweep over every frame's chunks. This is where the
	// cross-request amortization happens: a handful of small frames fill
	// the worker pool (and one evaluator's caches) the way one large
	// system would. Chunks are claimed from an atomic cursor; every
	// chunk's computation is self-contained and deterministic, so results
	// do not depend on which worker claims it.
	workers, opts := ev.splitBudget(len(ev.batchJobs))
	ev.cursor.Store(0)
	if workers == 1 {
		ev.sweep(opts, 0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ev.sweep(opts, w)
			}(w)
		}
		wg.Wait()
	}

	// Stage 3 — per-frame reductions and customized operators, serial and
	// in a fixed order so the double-precision sums associate the same way
	// at every batch size: deterministic energy reduction, then the network
	// gradient converted back to double precision for ProdForce/ProdVirial.
	for fi := range frames {
		f := &frames[fi]
		fs := ev.frames[fi]
		out := f.Out
		out.Energy = 0
		for _, e := range fs.chunkE {
			out.Energy += e
		}
		fs.nd64 = tensor.Resize(fs.nd64, len(fs.ndT))
		for i, v := range fs.ndT {
			fs.nd64[i] = float64(v)
		}
		descriptor.ProdForce(ctr, fs.nd64, fs.env, out.Force)
		out.Virial = descriptor.ProdVirial(ctr, fs.nd64, fs.env)
		repulsionEnergy(ctr, ev.cfg.RepA, ev.cfg.RepRcut, f.Pos, f.Nloc, f.List, f.Box, out)
	}
	ev.growArenas()
	return nil
}

// chunkJobs groups the first nloc atoms by type into byType (one reusable
// index slice per type) and appends their chunks to jobs: runs of at most
// chunkSize same-type atoms in index order, type by type. This is the one
// place chunk composition is decided — the evaluation sweep and the
// executed-shape FLOP model (Config.ExecutedFLOPs) both start here.
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
		for lo := 0; lo < len(atoms); lo += chunkSize {
			jobs = append(jobs, chunkJob{ci, atoms[lo:min(lo+chunkSize, len(atoms))]})
		}
	}
	return jobs, nil
}

// splitBudget divides the evaluator's one parallelism budget (Workers, one
// arena each) for a sweep of njobs chunks: as many sweep goroutines as
// there are chunks to keep busy, and the remainder as row-block goroutines
// inside each chunk's GEMMs — Workers=8 over 2 chunks runs 2 sweepers x 4
// GEMM workers, and a sweep that degenerates to serial hands the whole
// budget to the GEMM kernels. Parameter gradients accumulate into one
// shared ModelGrads, so ComputeWithGrads always sweeps serially.
func (ev *Evaluator[T]) splitBudget(njobs int) (workers int, opts tensor.Opts) {
	budget := len(ev.arenas)
	workers = max(1, min(budget, njobs))
	if ev.grads != nil {
		workers = 1
	}
	return workers, tensor.Opts{Workers: budget / workers}
}

// sweep is the body of sweep worker w: claim (frame, chunk) jobs from the
// shared cursor until none are left, evaluating each in worker w's arena
// and scratch.
func (ev *Evaluator[T]) sweep(opts tensor.Opts, w int) {
	ws, ar := ev.scratch[w], ev.arenas[w]
	for {
		bi := int(ev.cursor.Add(1)) - 1
		if bi >= len(ev.batchJobs) {
			return
		}
		bj := ev.batchJobs[bi]
		fs := ev.frames[bj.fi]
		j := fs.jobs[bj.ji]
		fs.chunkE[bj.ji] = ev.evalChunk(ev.Counter, opts, ws, ar, fs.env, fs.rT, fs.ndT, j.ci, j.atoms, fs.atomEnergy)
	}
}

// frameComputer is implemented by pooled computers that can evaluate a
// batch of frames in one sweep (the optimized Evaluator in either
// precision). The BaselineEvaluator predates batching and falls back to a
// per-frame loop in Engine.ComputeBatch.
type frameComputer interface {
	ComputeBatch(frames []Frame) error
}

// ComputeBatch evaluates a batch of independent frames on ONE borrowed
// evaluator as a single chunk sweep — the engine-level seam the
// cross-request micro-batcher (internal/serve) coalesces concurrent small
// requests through. Goroutine-safe like Compute; results are bit-identical
// to per-frame EvaluateInto calls at every batch size (see
// Evaluator.ComputeBatch). Baseline-strategy engines evaluate the frames
// sequentially on the borrowed evaluator, which is the same thing by
// definition.
func (e *Engine) ComputeBatch(frames []Frame) error {
	if len(frames) == 0 {
		return nil
	}
	c, err := e.acquire()
	if err != nil {
		return err
	}
	defer e.release(c)
	if fc, ok := c.(frameComputer); ok {
		return fc.ComputeBatch(frames)
	}
	for i := range frames {
		f := &frames[i]
		if f.Out == nil {
			return fmt.Errorf("core: batch frame %d has no Result", i)
		}
		if err := c.Compute(f.Pos, f.Types, f.Nloc, f.List, f.Box, f.Out); err != nil {
			return err
		}
	}
	return nil
}
