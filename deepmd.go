// Package deepmd is a pure-Go reproduction of the optimized DeePMD-kit of
// "Pushing the limit of molecular dynamics with ab initio accuracy to 100
// million atoms with machine learning" (SC '20): Deep Potential molecular
// dynamics with the paper's data-layout, operator-fusion, mixed-precision
// and parallelization optimizations, plus everything needed to regenerate
// its evaluation — system builders, an MD engine, a message-passing
// runtime, training against analytic "ab initio" oracles, analysis
// (RDF/CNA) and a calibrated Summit performance model.
//
// The entry point is Open: it resolves the execution choices the paper's
// optimizations introduced — precision (Sec. 5.2.3), descriptor execution
// strategy (Secs. 4 and 5.3.1, plus the successor papers' tabulated
// compression), per-evaluation parallelism — into one validated Plan and
// returns a goroutine-safe Engine backed by a pool of evaluators. Quick
// start:
//
//	model, _ := deepmd.NewModel(deepmd.TinyConfig(2))
//	eng, _ := deepmd.Open(model)                // Auto: fastest legal plan
//	sys := deepmd.BuildWater(4, 4, 4, 1)        // 64 molecules
//	sim, _ := deepmd.NewSimulation(sys, eng, deepmd.SimOptions{Dt: 5e-4,
//		Spec: deepmd.SpecFor(model.Cfg)})
//	sim.Run(500)
//
// Options select non-default plans, validated once at Open time:
//
//	deepmd.Open(model,
//		deepmd.WithPrecision(deepmd.Mixed),     // float32 network math
//		deepmd.WithStrategy(deepmd.Compressed), // needs attached tables
//		deepmd.WithWorkers(8),                  // goroutines per evaluation
//		deepmd.WithMaxConcurrency(16))          // concurrent evaluations served
//
// One Engine serves any number of goroutines: concurrent Compute calls
// each borrow a pooled evaluator (zero steady-state allocation), and
// Ensemble runs k replica simulations over the shared
// pool. See examples/ for complete programs and DESIGN.md ("Engine & plan
// resolution") / EXPERIMENTS.md for the reproduction map.
package deepmd

import (
	"deepmd-go/internal/analysis"
	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/domain"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/learn"
	"deepmd-go/internal/md"
	"deepmd-go/internal/mpi"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perfmodel"
	"deepmd-go/internal/refpot"
	"deepmd-go/internal/train"
	"deepmd-go/internal/units"
)

// Model configuration and construction.

// Config describes a Deep Potential model (cutoffs, sel, network widths).
type Config = core.Config

// Model holds the trained (or initialized) Deep Potential networks.
type Model = core.Model

// Result is one potential evaluation: energy, atomic energies, forces and
// the virial tensor.
type Result = core.Result

// NewModel constructs a model with freshly initialized weights.
func NewModel(cfg Config) (*Model, error) { return core.New(cfg) }

// LoadModel reads a model file written by Model.SaveFile.
func LoadModel(path string) (*Model, error) { return core.LoadFile(path) }

// CompressSpec configures the tabulated-embedding build of
// Model.AttachCompressedTables (domain bounds and segments per table);
// the zero value selects the default domain and resolution for the
// model's cutoff. Attach tables BEFORE Open: the Compressed strategy
// requires them, and Auto prefers them.
type CompressSpec = compress.Spec

// AttachCompressedTables tabulates the model's embedding nets as
// piecewise quintics and stores them on the model, so checkpoints
// round-trip compressed and Open can serve the Compressed strategy.
// Facade form of Model.AttachCompressedTables for callers outside this
// module (internal/compress is unimportable there).
func AttachCompressedTables(m *Model, spec CompressSpec) error {
	return m.AttachCompressedTables(spec)
}

// WaterConfig is the paper's liquid-water model geometry (Sec. 6.1).
func WaterConfig() Config { return core.WaterConfig() }

// CopperConfig is the paper's copper model geometry (Sec. 6.1).
func CopperConfig() Config { return core.CopperConfig() }

// TinyConfig is a scaled-down model for experiments on small machines.
func TinyConfig(ntypes int) Config { return core.TinyConfig(ntypes) }

// The Engine API: one options-driven entry point over every execution
// strategy and precision.

// Potential is anything that can compute energies and forces for the MD
// engine: the Engine and the reference potentials implement it.
type Potential = md.Potential

// Precision selects the numeric execution of the pipeline: Double or
// Mixed (float32 network math between float64 boundaries, Sec. 5.2.3).
type Precision = core.Precision

// Strategy selects the descriptor execution strategy: Auto picks the
// fastest legal one for the model, Baseline is the 2018 serial execution,
// PerAtom the retained per-atom reference loops, Batched the exact nets
// run chunk by chunk as one fused tile operator (Sec. 5.3), Compressed the
// tabulated-embedding pipeline of the successor papers (requires attached
// tables).
type Strategy = core.Strategy

// Precision and strategy values accepted by the Open options.
const (
	Double = core.Double
	Mixed  = core.Mixed

	Auto       = core.StrategyAuto
	Baseline   = core.StrategyBaseline
	PerAtom    = core.StrategyPerAtom
	Batched    = core.StrategyBatched
	Compressed = core.StrategyCompressed
)

// Plan is a fully resolved execution plan; Engine.Plan reports the one an
// engine runs.
type Plan = core.Plan

// Sentinel errors of plan resolution and strategy dispatch; match with
// errors.Is.
var (
	// ErrStrategyUnavailable reports a precision x strategy x model
	// combination that cannot execute (Open validation).
	ErrStrategyUnavailable = core.ErrStrategyUnavailable
	// ErrNoGradsForCompressed reports parameter gradients requested on
	// the weightless compressed embedding path.
	ErrNoGradsForCompressed = core.ErrNoGradsForCompressed
)

// Option configures Open.
type Option func(*Plan)

// WithPrecision selects Double or Mixed execution (default Double).
func WithPrecision(p Precision) Option { return func(pl *Plan) { pl.Precision = p } }

// WithStrategy selects the descriptor execution strategy (default Auto:
// Compressed when the model ships tables, else Batched).
func WithStrategy(s Strategy) Option { return func(pl *Plan) { pl.Strategy = s } }

// WithWorkers sets the parallelism budget of one evaluation — the size of
// the force call's team, whose members share its stages and sweep its
// atom chunks; every GEMM runs on one member (default: the model config's
// Workers). The same budget feeds neighbor-list rebuilds of simulations
// driven by the engine.
func WithWorkers(n int) Option { return func(pl *Plan) { pl.Workers = n } }

// WithMaxConcurrency bounds how many concurrent evaluations the engine
// serves — the size of its pooled-evaluator free list (default:
// GOMAXPROCS). Evaluators are built lazily, so an over-provisioned bound
// costs nothing until used.
func WithMaxConcurrency(n int) Option { return func(pl *Plan) { pl.MaxConcurrency = n } }

// Engine is the goroutine-safe serving handle over one model: a resolved
// Plan plus a pool of per-goroutine evaluators with their arenas. It
// implements Potential, so it plugs into NewSimulation and RunParallel
// seams directly, and exposes Evaluate / Compute for raw force
// calls from concurrent goroutines with zero steady-state allocation.
type Engine struct {
	*core.Engine
}

// Open validates the full option combination against the model once and
// returns an Engine executing the resolved plan. Strategy and precision
// conflicts (Compressed without attached tables, Baseline with Mixed)
// surface here as ErrStrategyUnavailable.
func Open(model *Model, opts ...Option) (*Engine, error) {
	var req Plan
	for _, o := range opts {
		o(&req)
	}
	ce, err := core.NewEngine(model, req)
	if err != nil {
		return nil, err
	}
	return &Engine{ce}, nil
}

// Ensemble runs one replica simulation per system over this engine's
// evaluator pool, every replica at once with at most
// Plan().MaxConcurrency force calls at a time, and returns the finished
// simulations (with their thermo logs) in order. Replica trajectories are
// bit-identical to running each serially.
func (e *Engine) Ensemble(systems []*System, opt SimOptions, steps int) ([]*Simulation, error) {
	return md.RunEnsemble(e, systems, opt, steps)
}

// MD engine.

// System is the mutable atomic state of a simulation.
type System = md.System

// SimOptions configures a serial simulation.
type SimOptions = md.Options

// Simulation drives one serial MD run.
type Simulation = md.Sim

// Thermo is one thermodynamic sample.
type Thermo = md.Thermo

// Thermostats: Berendsen (weak coupling), Rescale (hard), Langevin
// (stochastic, canonical-ensemble fluctuations).
type (
	Berendsen = md.Berendsen
	Rescale   = md.Rescale
	Langevin  = md.Langevin
)

// NewSimulation validates options and prepares a serial simulation.
func NewSimulation(sys *System, pot Potential, opt SimOptions) (*Simulation, error) {
	return md.NewSim(sys, pot, opt)
}

// NeighborSpec describes cutoff and skin requirements; SpecFor derives it
// from a model config.
type NeighborSpec = neighbor.Spec

// SpecFor returns the neighbor requirements of a model configuration.
func SpecFor(cfg Config) NeighborSpec {
	return neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
}

// Box is an orthorhombic periodic box.
type Box = neighbor.Box

// NeighborList is a raw neighbor list consumed by Potential.Compute.
type NeighborList = neighbor.List

// BuildNeighborList constructs the periodic neighbor list of a system
// using workers goroutines (pass Config.Workers to keep the build in step
// with the parallel evaluator; <= 1 builds serially).
func BuildNeighborList(sys *System, spec NeighborSpec, workers int) (*NeighborList, error) {
	return neighbor.Build(spec, sys.Pos, sys.Types, sys.N(), &sys.Box, workers)
}

// Parallel (domain-decomposed) runs.

// ParallelOptions configures a domain-decomposed run over simulated ranks.
type ParallelOptions = domain.Options

// ParallelStats is the result of a parallel run.
type ParallelStats = domain.Stats

// RunParallel executes a domain-decomposed simulation (Sec. 5.4) over
// in-process ranks. newPot is called once per rank: build a per-rank
// potential, or return one shared goroutine-safe Engine every time — its
// pool then serves the ranks' concurrent force calls and supplies the
// per-rank neighbor worker budget when opt.Workers is unset. Because
// every rank evaluates concurrently with the engine's full
// per-evaluation Workers, open a shared engine with
// WithWorkers(budget / Ranks) and WithMaxConcurrency(>= Ranks); see
// domain.Run.
func RunParallel(sys *System, newPot func() Potential, opt ParallelOptions) (*ParallelStats, error) {
	return domain.Run(sys, newPot, opt)
}

// RunParallelOn executes this process's rank of a distributed simulation
// on an already-connected communicator — the SPMD entry point used by
// cmd/dpmd's tcp transport, where every process calls it with the same
// full System and its own rank's Comm (see mpi.DialTCP). Stats are
// populated on rank 0 only.
func RunParallelOn(c *mpi.Comm, sys *System, pot Potential, opt ParallelOptions) (*ParallelStats, error) {
	return domain.RunOn(c, sys, pot, opt)
}

// System builders.

// BuildWater places nx x ny x nz water molecules at liquid density with
// randomized orientations, returning a System with O/H types and masses.
func BuildWater(nx, ny, nz int, seed int64) *System {
	cell := lattice.Water(nx, ny, nz, lattice.WaterSpacing, seed)
	return &System{
		Pos:        cell.Pos,
		Types:      cell.Types,
		MassByType: []float64{units.MassO, units.MassH},
		Box:        cell.Box,
		Vel:        make([]float64, 3*cell.N()),
	}
}

// BuildCopper builds an FCC copper supercell (4*nx*ny*nz atoms).
func BuildCopper(nx, ny, nz int) *System {
	cell := lattice.FCC(nx, ny, nz, lattice.CuLatticeConst)
	return &System{
		Pos:        cell.Pos,
		Types:      cell.Types,
		MassByType: []float64{units.MassCu},
		Box:        cell.Box,
		Vel:        make([]float64, 3*cell.N()),
	}
}

// BuildNanocrystal builds a Schiotz-style nanocrystalline copper sample:
// ngrains randomly oriented Voronoi grains in a cubic box of edge l
// Angstrom (Fig. 7(a)).
func BuildNanocrystal(l float64, ngrains int, seed int64) *System {
	cell := lattice.Nanocrystal(l, ngrains, lattice.CuLatticeConst, 2.2, seed)
	return &System{
		Pos:        cell.Pos,
		Types:      cell.Types,
		MassByType: []float64{units.MassCu},
		Box:        cell.Box,
		Vel:        make([]float64, 3*cell.N()),
	}
}

// Reference potentials ("ab initio" oracles and EFF baselines).

// NewSuttonChenCu returns the Sutton-Chen EAM copper potential.
func NewSuttonChenCu() Potential { return refpot.NewSuttonChenCu() }

// NewToyWater returns the flexible three-site water oracle.
func NewToyWater() Potential { return refpot.NewToyWater() }

// NewLennardJones returns a single-species truncated-shifted LJ potential.
func NewLennardJones(eps, sigma, rcut float64) Potential {
	return refpot.NewLennardJones(eps, sigma, rcut)
}

// Training.

// Frame is one labeled training configuration.
type Frame = train.Frame

// TrainConfig sets optimizer hyper-parameters.
type TrainConfig = train.Config

// Trainer minimizes the per-atom energy loss over a dataset.
type Trainer = train.Trainer

// NewTrainer prepares a trainer for the model.
func NewTrainer(model *Model, cfg TrainConfig) (*Trainer, error) {
	return train.NewTrainer(model, cfg)
}

// Active learning (the DP-GEN concurrent-learning loop, cmd/dplearn).

// LearnConfig drives the active-learning loop: ensemble size, exploration
// MD, ε_f trust thresholds, harvest budget, training hyper-parameters.
type LearnConfig = learn.Config

// LearnReport is the machine-readable per-round convergence report.
type LearnReport = learn.Report

// Labeler produces reference energy/force labels for harvested frames —
// the seam where DP-GEN submits configurations to DFT.
type Labeler = learn.Labeler

// NewReferenceLabeler wraps an analytic reference potential as a Labeler.
func NewReferenceLabeler(pot Potential, spec NeighborSpec, workers int) Labeler {
	return refpot.NewLabeler(pot, spec, workers)
}

// RunActiveLearning closes the concurrent-learning loop around base:
// train an ensemble of replicas, explore with MD, bucket frames by force
// model deviation, harvest and label the uncertain ones, retrain, iterate
// until the candidate fraction collapses. Velocities and masses of base
// are ignored (exploration draws fresh Boltzmann velocities; masses come
// from cfg.Model.Masses).
func RunActiveLearning(cfg LearnConfig, base *System, labeler Labeler) (*LearnReport, error) {
	return learn.Run(cfg, &lattice.System{Pos: base.Pos, Types: base.Types, Box: base.Box}, labeler)
}

// Analysis.

// RDF accumulates a radial distribution function.
type RDF = analysis.RDF

// NewRDF prepares a g_AB(r) accumulator.
func NewRDF(typeA, typeB int, rmax float64, bins int) *RDF {
	return analysis.NewRDF(typeA, typeB, rmax, bins)
}

// CNA classifies atoms into fcc/hcp/other (Fig. 7) using workers
// goroutines for the underlying neighbor search.
func CNA(pos []float64, types []int, box *Box, rcut float64, workers int) ([]analysis.Structure, error) {
	return analysis.CNA(pos, types, box, rcut, workers)
}

// Performance model.

// Summit returns the paper's machine description.
func Summit() perfmodel.Machine { return perfmodel.Summit() }

// WaterPerfModel and CopperPerfModel return the calibrated per-system
// Summit performance models used for Figs. 5-6 and Tables 1/4.
func WaterPerfModel() perfmodel.SystemModel  { return perfmodel.WaterModel() }
func CopperPerfModel() perfmodel.SystemModel { return perfmodel.CopperModel() }
