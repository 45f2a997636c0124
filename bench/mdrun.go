package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	deepmd "deepmd-go"
	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
)

// workers is the parallelism every workload is sized for: the reference
// box has two cores, and the sizing is fixed rather than host-derived so a
// number means the same thing on every box.
const workers = 2

// Paper cadence (Sec. 6.1): 2 A buffer rebuilt every 50 steps, thermo
// every 20.
const (
	mdRebuildEvery = 50
	mdThermoEvery  = 20
	mdTemperature  = 330
)

// mdWorkload describes one single-process MD workload at paper geometry.
type mdWorkload struct {
	name      string
	cfg       core.Config
	system    func(seed int64) *md.System
	precision core.Precision
	strategy  core.Strategy
	skin      float64 // neighbor-list buffer, Angstrom
	dt        float64 // ps
	// tol is the force tolerance of the correctness check, relative to
	// 1+|F| — the bound the repo's own differential tests hold this plan
	// to against the per-atom double-precision reference.
	tol float64
}

var waterMD = mdWorkload{
	name:      wlWater,
	cfg:       core.WaterConfig(),
	system:    func(seed int64) *md.System { return deepmd.BuildWater(6, 6, 6, seed) },
	precision: core.Double,
	strategy:  core.StrategyBatched,
	skin:      2.0,
	dt:        0.0005,
	tol:       1e-11,
}

// copperMD keeps the paper's copper model (rc 8 A, sel 500) but runs with
// a 1 A skin instead of 2 A: the skin is an MD-run parameter, and 1 A is
// what lets the minimum-image box hold 500 atoms (18.075 A >= 2*(8+1)).
var copperMD = mdWorkload{
	name:      wlCopper,
	cfg:       core.CopperConfig(),
	system:    func(int64) *md.System { return deepmd.BuildCopper(5, 5, 5) },
	precision: core.Mixed,
	strategy:  core.StrategyCompressed,
	skin:      1.0,
	dt:        0.001,
	tol:       2e-4,
}

func (w *mdWorkload) spec() neighbor.Spec {
	return neighbor.Spec{Rcut: w.cfg.Rcut, Skin: w.skin, Sel: w.cfg.Sel}
}

// safely converts a panic in the program under test into a failed
// operation instead of a lost run.
func safely(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// runMD executes one single-process MD workload: set-up through the first
// completed step, the timed steps, then the correctness check.
func runMD(env *runEnv, w *mdWorkload) (*runResult, *timing, error) {
	model, err := core.New(w.cfg)
	if err != nil {
		return nil, nil, err
	}
	var tableBuild time.Duration
	if w.strategy == core.StrategyCompressed {
		t0 := time.Now()
		if err := model.AttachCompressedTables(compress.Spec{}); err != nil {
			return nil, nil, err
		}
		tableBuild = time.Since(t0)
	}
	eng, err := deepmd.Open(model, deepmd.WithPrecision(w.precision), deepmd.WithStrategy(w.strategy), deepmd.WithWorkers(workers))
	if err != nil {
		return nil, nil, err
	}
	sys := w.system(env.opt.seed)
	sys.InitVelocities(mdTemperature, env.opt.seed+1)

	var pot md.Potential = eng
	var tp *tracedPotential
	if env.opt.trace {
		env.rec = newRecorder(4 * (env.ops + 1))
		tp = &tracedPotential{inner: eng, rec: env.rec}
		pot = tp
	}
	sim, err := md.NewSim(sys, pot, md.Options{
		Dt: w.dt, Spec: w.spec(), RebuildEvery: mdRebuildEvery, ThermoEvery: mdThermoEvery, Workers: workers,
	})
	if err != nil {
		return nil, nil, err
	}
	// The warm-up step builds the first neighbor list and grows every
	// arena; it is the first completed operation and ends set-up.
	if err := safely(sim.Step); err != nil {
		return nil, nil, fmt.Errorf("warm-up step: %w", err)
	}
	env.setupDone()
	if env.opt.setupOnly {
		return nil, nil, nil
	}

	res := env.newResult(sys.N())
	tm := &timing{steps: env.ops}
	var tr mdTrace
	var m0, m1 runtime.MemStats
	if env.opt.trace {
		runtime.ReadMemStats(&tr.before)
	}
	cpu0 := selfCPU()
	for i := 0; i < env.ops; i++ {
		rebuild := (sim.CurrentStep()+1)%mdRebuildEvery == 0
		// Traced pass: every other step runs with the span wrapper off,
		// so traced and untraced steps interleave in one run and their
		// medians give the tracing overhead free of drift. Rebuild steps
		// are always traced (there are few of them).
		traced := env.opt.trace && (i%2 == 0 || rebuild)
		id := -1
		if traced {
			runtime.ReadMemStats(&m0)
			id = env.rec.begin("md.step", 0, -1, i)
			tp.parent, tp.op = id, i
		}
		if tp != nil {
			tp.on = traced
		}
		t0 := time.Now()
		err := safely(sim.Step)
		dt := time.Since(t0)
		if traced {
			env.rec.end(id)
			runtime.ReadMemStats(&m1)
			tr.add(i, ms(dt), rebuild, &m0, &m1)
		} else if env.opt.trace && !rebuild {
			tr.untraced = append(tr.untraced, ms(dt))
		}
		tm.stepMs = append(tm.stepMs, ms(dt))
		tm.wall += dt
		res.Attempted++
		switch {
		case err != nil:
			res.fail("step %d: %v", i, err)
		case !finite(sim.Result().Energy):
			res.fail("step %d: potential energy %v is not finite", i, sim.Result().Energy)
		}
		if env.opt.trace && (i%snapshotEvery == snapshotEvery-1 || i == env.ops-1) && len(tr.snaps) < maxSnapshots {
			tr.snaps = append(tr.snaps, append([]float64(nil), sys.Pos...))
		}
	}
	tm.cpu = selfCPU().sub(cpu0)
	if tm.rssMB, err = peakRSSMB(selfPID); err != nil {
		return nil, nil, err
	}
	if env.opt.trace {
		runtime.ReadMemStats(&tr.after)
	}

	res.check("forces_vs_peratom_double", checkForces(w, model, sys, sim.Result(), env.ops))
	res.check("thermo_finite", checkThermo(sim.Log))

	if env.opt.trace {
		tr.tableBuild = tableBuild
		tr.cpu = tm.cpu
		tr.log = sim.Log
		if w.precision == core.Mixed {
			err = mdLayerMetrics[float32](env, res, w, model, sys, &tr)
		} else {
			err = mdLayerMetrics[float64](env, res, w, model, sys, &tr)
		}
		res.check("layer_probes", err)
	}
	return res, tm, nil
}

// checkForces re-evaluates the final configuration with an independent
// per-atom, double-precision, one-worker engine on a freshly built
// neighbor list and requires the run's last forces and energy to agree
// within the plan's tolerance.
func checkForces(w *mdWorkload, model *core.Model, sys *md.System, got *core.Result, op int) error {
	ref, err := deepmd.Open(model, deepmd.WithPrecision(core.Double), deepmd.WithStrategy(core.StrategyPerAtom), deepmd.WithWorkers(1))
	if err != nil {
		return err
	}
	pos := wrapped(sys.Pos, &sys.Box)
	list, err := neighbor.Build(w.spec(), pos, sys.Types, sys.N(), &sys.Box, workers)
	if err != nil {
		return err
	}
	want, err := ref.Evaluate(pos, sys.Types, sys.N(), list, &sys.Box)
	if err != nil {
		return err
	}
	for i, f := range want.Force {
		if d := math.Abs(got.Force[i] - f); !(d <= w.tol*(1+math.Abs(f))) {
			return fmt.Errorf("after op %d: force on atom %d axis %d is %.17g, reference %.17g (|diff| %.3g > %.3g)",
				op, i/3, i%3, got.Force[i], f, d, w.tol*(1+math.Abs(f)))
		}
	}
	if d := math.Abs(got.Energy - want.Energy); !(d <= w.tol*(1+math.Abs(want.Energy))) {
		return fmt.Errorf("after op %d: energy is %.17g, reference %.17g (|diff| %.3g)", op, got.Energy, want.Energy, d)
	}
	return nil
}

// wrapped returns a copy of the positions folded back into the box, as
// md.Sim does before every list rebuild.
func wrapped(pos []float64, box *neighbor.Box) []float64 {
	out := append([]float64(nil), pos...)
	for i := 0; i < len(out); i += 3 {
		box.Wrap(out[i : i+3])
	}
	return out
}

func checkThermo(log []md.Thermo) error {
	for _, t := range log {
		for _, v := range []float64{t.Kinetic, t.Potential, t.Temperature, t.Pressure} {
			if !finite(v) {
				return fmt.Errorf("thermo sample at step %d is not finite: %+v", t.Step, t)
			}
		}
	}
	return nil
}
