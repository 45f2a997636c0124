package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// Layer probes run on position snapshots taken every snapshotEvery-th
// operation of the traced pass: each layer's public function is called
// standalone on the workload's own shapes and precision and timed.
const (
	snapshotEvery = 10
	maxSnapshots  = 5
)

// sampleSet collects timing samples by metric name.
type sampleSet map[string][]float64

// time runs f and records its wall time in ms under name.
func (s sampleSet) time(name string, f func()) {
	t0 := time.Now()
	f()
	s[name] = append(s[name], ms(time.Since(t0)))
}

// emit records the median of a sample set as a metric.
func (s sampleSet) emit(env *runEnv, res *runResult, name string) float64 {
	med := median(s[name])
	res.add(env.decl, name, med, len(s[name]))
	return med
}

// probeReps is how often each probe repeats per snapshot.
func probeReps(env *runEnv) int {
	if env.opt.smoke {
		return 1
	}
	return 3
}

// neighborProbes times the neighbor layer's two public entry points on one
// configuration and returns the list it built. box is nil for the
// ghost-extended configurations of a domain-decomposed rank.
func neighborProbes(s sampleSet, spec neighbor.Spec, pos []float64, types []int, nloc int, box *neighbor.Box, nworkers, reps int) (*neighbor.List, error) {
	var list *neighbor.List
	var fm neighbor.Formatter
	for r := 0; r < reps; r++ {
		var err error
		s.time("neighbor.build_ms", func() { list, err = neighbor.Build(spec, pos, types, nloc, box, nworkers) })
		if err != nil {
			return nil, err
		}
		// The evaluator formats against the model cutoff, without skin.
		s.time("neighbor.format_ms", func() { _, err = fm.Format(neighbor.Spec{Rcut: spec.Rcut, Sel: spec.Sel}, list) })
		if err != nil {
			return nil, err
		}
	}
	entries := 0
	for _, row := range list.Entries {
		entries += len(row)
	}
	s["neighbor.entries_per_atom"] = append(s["neighbor.entries_per_atom"], float64(entries)/float64(nloc))
	return list, nil
}

// extraOver is how much longer the median rebuild step spent outside the
// force call than the median plain step; 0 when the window held no rebuild.
func extraOver(rebuilds, plain []float64) float64 {
	if len(rebuilds) == 0 {
		return 0
	}
	return median(rebuilds) - median(plain)
}

// mdTrace is what the traced pass of an MD workload collects in situ.
type mdTrace struct {
	plain, untraced    []float64    // wall of traced / untraced plain steps, ms
	rebuildOps         map[int]bool // operations whose step rebuilt the list
	allocs, allocBytes []float64    // heap allocations per traced step
	snaps              [][]float64
	before, after      runtime.MemStats
	cpu                cpuTimes
	tableBuild         time.Duration
	log                []md.Thermo
}

func (tr *mdTrace) add(op int, stepMs float64, rebuild bool, m0, m1 *runtime.MemStats) {
	if rebuild {
		if tr.rebuildOps == nil {
			tr.rebuildOps = make(map[int]bool)
		}
		tr.rebuildOps[op] = true
	} else {
		tr.plain = append(tr.plain, stepMs)
	}
	tr.allocs = append(tr.allocs, float64(m1.Mallocs-m0.Mallocs))
	tr.allocBytes = append(tr.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
}

// netFor returns the network in precision T: the master itself for
// float64, a converted copy for float32 — how the evaluator derives its
// own.
func netFor[T tensor.Float](n *nn.Net[float64]) *nn.Net[T] {
	if same, ok := any(n).(*nn.Net[T]); ok {
		return same
	}
	return nn.ConvertNet[T](n)
}

// fitted returns an arena large enough for pass, found by running it once.
func fitted[T tensor.Float](pass func(ar *tensor.Arena[T])) *tensor.Arena[T] {
	ar := tensor.NewArena[T](1 << 14)
	pass(ar)
	return tensor.NewArena[T](ar.MaxPeak() + ar.MaxPeak()/4)
}

// chunks calls f for every same-type atom chunk of the frame, in the
// evaluator's order: types ascending, ChunkSize atoms at a time.
func chunks(cfg *core.Config, types []int, f func(ci int, atoms []int)) {
	byType := make([][]int, cfg.NumTypes())
	for i, t := range types {
		byType[t] = append(byType[t], i)
	}
	for ci, atoms := range byType {
		for lo := 0; lo < len(atoms); lo += cfg.ChunkSize {
			f(ci, atoms[lo:min(lo+cfg.ChunkSize, len(atoms))])
		}
	}
}

// gatherS copies the s(r) column of one chunk's neighbor-type section out
// of the environment matrix — the embedding net's (or table's) input.
func gatherS[T tensor.Float](dst []T, rT []T, atoms []int, stride, off, sel int) []T {
	dst = dst[:0]
	for _, atom := range atoms {
		base := (atom*stride + off) * 4
		for k := 0; k < sel; k++ {
			dst = append(dst, rT[base+k*4])
		}
	}
	return dst
}

// gemmGflops runs an m x k x n GEMM iters times on each of nworkers
// goroutines and returns the aggregate rate.
func gemmGflops[T tensor.Float](m, k, n, nworkers, iters int) float64 {
	type operands struct{ a, b, c tensor.Matrix[T] }
	ops := make([]operands, nworkers)
	for w := range ops {
		ops[w] = operands{tensor.NewMatrix[T](m, k), tensor.NewMatrix[T](k, n), tensor.NewMatrix[T](m, n)}
		for i := range ops[w].a.Data {
			ops[w].a.Data[i] = T(0.001 * float64(i%97))
		}
		for i := range ops[w].b.Data {
			ops[w].b.Data[i] = T(0.002 * float64(i%89))
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range ops {
		wg.Add(1)
		go func(o operands) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tensor.GemmOpt(tensor.Opts{Workers: 1}, nil, 1, o.a, o.b, 0, o.c)
			}
		}(ops[w])
	}
	wg.Wait()
	return float64(nworkers) * float64(iters) * 2 * float64(m) * float64(k) * float64(n) / time.Since(t0).Seconds() / 1e9
}

// mdLayerMetrics runs the layer probes and the raw-evaluator replays on
// the traced pass's snapshots, in the workload's precision T, and records
// every per-layer metric of a single-process MD workload.
func mdLayerMetrics[T tensor.Float](env *runEnv, res *runResult, w *mdWorkload, model *core.Model, sys *md.System, tr *mdTrace) error {
	cfg := &model.Cfg
	n := sys.N()
	stride, m, dim := cfg.Stride(), cfg.M(), cfg.DescriptorDim()
	nt := cfg.NumTypes()
	reps := probeReps(env)
	compressed := w.strategy == core.StrategyCompressed
	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	selOff := make([]int, nt+1)
	for t, sel := range cfg.Sel {
		selOff[t+1] = selOff[t] + sel
	}
	opts := tensor.Opts{Workers: 1}
	s := make(sampleSet)

	// Networks and tables in the workload's precision, as the evaluator
	// holds them.
	embed := make([][]*nn.Net[T], nt)
	fit := make([]*nn.Net[T], nt)
	tables := make([][]*compress.Table[T], nt)
	var tableBytes int
	for ci := 0; ci < nt; ci++ {
		fit[ci] = netFor[T](model.Fit[ci])
		embed[ci] = make([]*nn.Net[T], nt)
		tables[ci] = make([]*compress.Table[T], nt)
		for tj := 0; tj < nt; tj++ {
			embed[ci][tj] = netFor[T](model.Embed[ci][tj])
			if compressed {
				tables[ci][tj] = compress.Convert[T](model.Compressed[ci][tj])
				// Resident at run time: the model's float64 master
				// tables plus the evaluator's converted copy.
				tableBytes += model.Compressed[ci][tj].Bytes() + tables[ci][tj].Bytes()
			}
		}
	}

	// Raw one-worker evaluator for the replay and the FLOP/category count.
	m1 := *model
	m1.Cfg.Workers = 1
	ev1 := core.NewEvaluator[T](&m1)
	if compressed {
		if err := ev1.SetCompressedEmbedding(compress.Spec{}); err != nil {
			return err
		}
	}
	ctr := perf.NewCounter()
	var flops []float64
	var catNs [5]float64
	cats := []perf.Category{perf.CatGEMM, perf.CatTANH, perf.CatSLICE, perf.CatCUSTOM, perf.CatOther}

	maxRows := cfg.ChunkSize * slices.Max(cfg.Sel)
	sBuf := make([]T, 0, maxRows)
	ones := make([]T, maxRows*m)
	for i := range ones {
		ones[i] = 1
	}
	fitIn := make([]T, cfg.ChunkSize*dim)
	for i := range fitIn {
		fitIn[i] = T(0.1 * math.Sin(float64(i)))
	}
	nd := make([]float64, n*stride*4)
	for i := range nd {
		nd[i] = 1e-3 * math.Cos(float64(i))
	}
	force := make([]float64, 3*n)
	var g, dg []T
	if compressed {
		g, dg = make([]T, maxRows*m), make([]T, maxRows*m)
	}
	var sc descriptor.Scratch
	var rT []T
	var embedAr, fitAr *tensor.Arena[T]
	embTr := make([]*nn.Trace[T], nt)
	for tj := range embTr {
		embTr[tj] = new(nn.Trace[T])
	}
	var fitTr nn.Trace[T]
	var embedFlops, fitFlops, lookups int64
	var out core.Result

	for _, snap := range tr.snaps {
		pos := wrapped(snap, &sys.Box)
		list, err := neighborProbes(s, w.spec(), pos, sys.Types, n, &sys.Box, workers, reps)
		if err != nil {
			return err
		}
		var envOut *descriptor.EnvOut
		for r := 0; r < reps; r++ {
			s.time("descriptor.env_ms", func() { envOut, err = sc.Environment(nil, dcfg, pos, sys.Types, list, &sys.Box) })
			if err != nil {
				return err
			}
			clear(force)
			s.time("descriptor.prod_force_ms", func() { descriptor.ProdForce(nil, nd, envOut, force) })
			s.time("descriptor.prod_virial_ms", func() { descriptor.ProdVirial(nil, nd, envOut) })
		}
		rT = descriptor.ConvertR(nil, envOut, rT)

		// One pass = the embedding (or table) work of one whole force
		// evaluation on one worker: every chunk, every neighbor-type
		// section, forward and backward.
		embedPass := func(ar *tensor.Arena[T]) {
			embedFlops = 0
			chunks(cfg, sys.Types, func(ci int, atoms []int) {
				for tj := 0; tj < nt; tj++ {
					sel := cfg.Sel[tj]
					rows := len(atoms) * sel
					sIn := tensor.MatrixFrom(rows, 1, gatherS(sBuf, rT, atoms, stride, selOff[tj], sel))
					net := embed[ci][tj]
					trc := net.ForwardInto(embTr[tj], nil, opts, ar, sIn, true)
					net.Backward(nil, opts, ar, trc, tensor.MatrixFrom(rows, m, ones[:rows*m]), nil)
					embedFlops += net.ForwardFLOPs(rows, true) + net.BackwardFLOPs(rows)
				}
				ar.Reset()
			})
		}
		lookupPass := func() {
			lookups = 0
			chunks(cfg, sys.Types, func(ci int, atoms []int) {
				for tj := 0; tj < nt; tj++ {
					sel := cfg.Sel[tj]
					rows := len(atoms) * sel
					tables[ci][tj].EvalBatch(nil, gatherS(sBuf, rT, atoms, stride, selOff[tj], sel), g[:rows*m], dg[:rows*m])
					lookups += int64(rows)
				}
			})
		}
		fitPass := func(ar *tensor.Arena[T]) {
			fitFlops = 0
			chunks(cfg, sys.Types, func(ci int, atoms []int) {
				rows := len(atoms)
				net := fit[ci]
				trc := net.ForwardInto(&fitTr, nil, opts, ar, tensor.MatrixFrom(rows, dim, fitIn[:rows*dim]), true)
				net.Backward(nil, opts, ar, trc, tensor.MatrixFrom(rows, 1, ones[:rows]), nil)
				fitFlops += net.ForwardFLOPs(rows, true) + net.BackwardFLOPs(rows)
				ar.Reset()
			})
		}
		if embedAr == nil {
			if !compressed {
				embedAr = fitted(embedPass)
			}
			fitAr = fitted(fitPass)
			// Warm the replay evaluator outside the timing: the first call
			// sizes its arenas, the second touches the resized slabs.
			for i := 0; i < 2; i++ {
				if err := ev1.Compute(pos, sys.Types, n, list, &sys.Box, &out); err != nil {
					return err
				}
			}
		}
		for r := 0; r < reps; r++ {
			if compressed {
				s.time("compress.lookup_ms", lookupPass)
			} else {
				s.time("nn.embed_fwdbwd_ms", func() { embedPass(embedAr) })
			}
			s.time("nn.fit_fwdbwd_ms", func() { fitPass(fitAr) })
			s.time("core.compute_1w_ms", func() { err = ev1.Compute(pos, sys.Types, n, list, &sys.Box, &out) })
			if err != nil {
				return err
			}
		}
		// Counted replay: exact FLOPs and the Fig. 3 operator categories.
		ctr.Reset()
		ev1.Counter = ctr
		err = ev1.Compute(pos, sys.Types, n, list, &sys.Box, &out)
		ev1.Counter = nil
		if err != nil {
			return err
		}
		flops = append(flops, float64(ctr.FLOPs()))
		for i, c := range cats {
			catNs[i] += float64(ctr.CategoryTime(c))
		}
	}

	// GEMM shapes: the embedding net's widest layer at the largest
	// section batch (M x 25 x 50) and the fitting net's hidden layer at
	// one chunk (ChunkSize x 240 x 240). The peak is the best aggregate
	// rate of the fitting shape over all workers — the denominator of the
	// paper's "% of peak" (Table 1), measured on this host.
	gemmIters, gemmReps := 20, 5
	if env.opt.smoke {
		gemmIters, gemmReps = 2, 2
	}
	fw := cfg.FitWidths[0]
	var peak float64
	for r := 0; r < gemmReps; r++ {
		if !compressed {
			s["tensor.gemm_embed_gflops"] = append(s["tensor.gemm_embed_gflops"], gemmGflops[T](maxRows, cfg.EmbedWidths[0], cfg.EmbedWidths[1], 1, gemmIters/2))
		}
		s["tensor.gemm_fit_gflops"] = append(s["tensor.gemm_fit_gflops"], gemmGflops[T](cfg.ChunkSize, fw, fw, 1, gemmIters))
		peak = max(peak, gemmGflops[T](cfg.ChunkSize, fw, fw, workers, gemmIters))
	}

	d := env.decl
	s.emit(env, res, "neighbor.build_ms")
	s.emit(env, res, "neighbor.entries_per_atom")
	s.emit(env, res, "neighbor.format_ms")
	// Spans: md.step with its core.compute children. A step's self time is
	// everything outside the force call: integration, and on a rebuild step
	// the wrap and the list build.
	var stepMs, selfMs, selfRebuild, selfPlain []float64
	for _, st := range env.rec.selfTimes("md.step") {
		stepMs = append(stepMs, st.total)
		selfMs = append(selfMs, st.self)
		if tr.rebuildOps[st.op] {
			selfRebuild = append(selfRebuild, st.self)
		} else {
			selfPlain = append(selfPlain, st.self)
		}
	}
	res.add(d, "neighbor.rebuild_step_extra_ms", extraOver(selfRebuild, selfPlain), len(selfRebuild))

	envMs := s.emit(env, res, "descriptor.env_ms")
	pfMs := s.emit(env, res, "descriptor.prod_force_ms")
	pvMs := s.emit(env, res, "descriptor.prod_virial_ms")

	var embedMs float64
	if compressed {
		embedMs = s.emit(env, res, "compress.lookup_ms")
		res.add(d, "compress.lookup_ns_per_entry", embedMs*1e6/float64(lookups), len(s["compress.lookup_ms"]))
		res.add(d, "compress.table_mb", float64(tableBytes)/(1<<20), 1)
		res.add(d, "compress.build_s", tr.tableBuild.Seconds(), 1)
	} else {
		embedMs = s.emit(env, res, "nn.embed_fwdbwd_ms")
		res.add(d, "nn.embed_gflops", float64(embedFlops)/embedMs/1e6, len(s["nn.embed_fwdbwd_ms"]))
		s.emit(env, res, "tensor.gemm_embed_gflops")
	}
	fitMs := s.emit(env, res, "nn.fit_fwdbwd_ms")
	res.add(d, "nn.fit_gflops", float64(fitFlops)/fitMs/1e6, len(s["nn.fit_fwdbwd_ms"]))
	s.emit(env, res, "tensor.gemm_fit_gflops")
	res.add(d, "tensor.peak_gflops", peak, gemmReps)

	computes := env.rec.durations("core.compute")
	computeMs := median(computes)
	res.add(d, "core.compute_ms", computeMs, len(computes))
	c1 := s.emit(env, res, "core.compute_1w_ms")
	res.add(d, "core.workers_speedup", c1/computeMs, len(s["core.compute_1w_ms"]))
	flopsPerStep := median(flops)
	res.add(d, "core.flops_per_step", flopsPerStep, len(flops))
	gflops := flopsPerStep / computeMs / 1e6
	res.add(d, "core.gflops", gflops, len(flops))
	res.add(d, "core.frac_of_peak", gflops/peak, len(flops))
	catTotal := sum(catNs[:])
	for i, name := range []string{"core.cat_gemm_frac", "core.cat_tanh_frac", "core.cat_slice_frac", "core.cat_custom_frac", "core.cat_other_frac"} {
		res.add(d, name, catNs[i]/catTotal, len(flops))
	}
	// What the standalone layer probes do not explain of a one-worker
	// force evaluation: descriptor contractions, gathers, conversions and
	// reductions inside core itself.
	res.add(d, "core.unaccounted_frac", 1-(envMs+embedMs+fitMs+pfMs+pvMs)/c1, len(s["core.compute_1w_ms"]))
	// Each worker's arena grows to the largest chunk it has served, which
	// for every worker is eventually a full one: the budget at the
	// workload's worker count is the one-worker arena times the workers.
	res.add(d, "core.arena_mb", float64(workers*ev1.ArenaBytes())/(1<<20), 1)

	res.add(d, "md.step_ms", median(stepMs), len(stepMs))
	res.add(d, "md.self_ms", median(selfMs), len(selfMs))
	res.add(d, "md.self_frac", sum(selfMs)/sum(stepMs), len(selfMs))
	res.add(d, "md.allocs_per_step", median(tr.allocs), len(tr.allocs))
	res.add(d, "md.alloc_bytes_per_step", median(tr.allocBytes), len(tr.allocBytes))
	var drift float64
	if k := len(tr.log); k >= 2 {
		drift = math.Abs((tr.log[k-1].Kinetic+tr.log[k-1].Potential)-(tr.log[0].Kinetic+tr.log[0].Potential)) / float64(n)
	}
	res.add(d, "md.energy_drift_ev_per_atom", drift, len(tr.log))

	runtimeMetrics(env, res, tr.cpu, &tr.before, &tr.after)
	res.add(d, "runtime.tracing_overhead_frac", median(tr.plain)/median(tr.untraced)-1, min(len(tr.plain), len(tr.untraced)))
	return nil
}

// runtimeMetrics records the process-level cost of a traced timed region.
func runtimeMetrics(env *runEnv, res *runResult, cpu cpuTimes, before, after *runtime.MemStats) {
	d := env.decl
	res.add(d, "runtime.cpu_user_s", cpu.user.Seconds(), 1)
	res.add(d, "runtime.cpu_sys_s", cpu.sys.Seconds(), 1)
	res.add(d, "runtime.sys_frac", cpu.sys.Seconds()/cpu.total().Seconds(), 1)
	if before == nil {
		return
	}
	res.add(d, "runtime.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	res.add(d, "runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, 1)
	res.add(d, "runtime.heap_peak_mb", float64(after.HeapSys)/(1<<20), 1)
}
