// Package md is the molecular-dynamics engine that plays the role LAMMPS
// plays in the paper: it owns atomic state, integrates the equations of
// motion with velocity Verlet, maintains the neighbor list on the paper's
// buffer/rebuild cadence, collects thermodynamic output on the reduced
// cadence of Sec. 5.4, applies thermostats and box deformation, and calls
// a Potential for energies and forces. The Deep Potential evaluators and
// the empirical reference potentials plug into the same seam, exactly as
// "we replace the computation of EFFs in LAMMPS by the computation of DP"
// (Sec. 5.4).
package md

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// Potential computes energy, forces and virial for a configuration. It is
// implemented by core.Engine, core.Evaluator, core.BaselineEvaluator and
// the refpot potentials. Raw evaluators are single-goroutine; only a
// core.Engine (or a stateless reference potential) may be shared between
// concurrent simulations (RunEnsemble).
type Potential interface {
	// Compute must be allocation-free in the steady state: after warm-up
	// the MD loop calls it twice per velocity-Verlet step, and the
	// 100M-atom runs stand on every step staying off the heap.
	//
	//dp:noalloc
	Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error
}

// WorkerHinter is implemented by potentials that know their per-evaluation
// worker budget (core.Engine). When Options.Workers is unset, NewSim and
// domain runs default the neighbor-build parallelism from the hint, so the
// list rebuild keeps pace with the evaluator without the caller threading
// the same number through every layer.
type WorkerHinter interface {
	EvalWorkers() int
}

// NeighborWorkers resolves the neighbor-build goroutine count of a run
// over pot: workers when set, else the potential's own per-evaluation
// budget when it reports one (WorkerHinter), else workers unchanged
// (<= 1 builds serially). NewSim, Relax and the domain runs share it.
func NeighborWorkers(workers int, pot Potential) int {
	if workers <= 0 {
		if wh, ok := pot.(WorkerHinter); ok {
			return wh.EvalWorkers()
		}
	}
	return workers
}

// System is the mutable atomic state of a serial (single-rank) simulation.
type System struct {
	Pos, Vel   []float64
	Types      []int
	MassByType []float64
	Box        neighbor.Box
}

// N returns the number of atoms.
func (s *System) N() int { return len(s.Types) }

// Mass returns the mass of atom i in amu.
func (s *System) Mass(i int) float64 { return s.MassByType[s.Types[i]] }

// KineticEnergy returns the kinetic energy in eV.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i := 0; i < s.N(); i++ {
		m := s.Mass(i)
		v2 := s.Vel[3*i]*s.Vel[3*i] + s.Vel[3*i+1]*s.Vel[3*i+1] + s.Vel[3*i+2]*s.Vel[3*i+2]
		ke += 0.5 * m * v2
	}
	return ke * units.KineticToEV
}

// Temperature returns the instantaneous temperature in K.
func (s *System) Temperature() float64 {
	dof := float64(3*s.N() - 3)
	if dof <= 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (dof * units.Boltzmann)
}

// InitVelocities draws velocities from the Boltzmann distribution at
// temperature T (K) and removes the center-of-mass drift, as in Sec. 6.1
// ("velocities of the atoms are randomly initialized subjected to the
// Boltzmann distribution at 330 K").
func (s *System) InitVelocities(tempK float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	if len(s.Vel) != 3*s.N() {
		s.Vel = make([]float64, 3*s.N())
	}
	for i := 0; i < s.N(); i++ {
		sigma := math.Sqrt(units.Boltzmann * tempK / (s.Mass(i) * units.KineticToEV))
		for a := 0; a < 3; a++ {
			s.Vel[3*i+a] = sigma * rng.NormFloat64()
		}
	}
	s.RemoveDrift()
	// Rescale to hit the target exactly.
	if t := s.Temperature(); t > 0 {
		f := math.Sqrt(tempK / t)
		for i := range s.Vel {
			s.Vel[i] *= f
		}
	}
}

// RemoveDrift zeroes the center-of-mass momentum.
func (s *System) RemoveDrift() {
	var p [3]float64
	var mTot float64
	for i := 0; i < s.N(); i++ {
		m := s.Mass(i)
		mTot += m
		for a := 0; a < 3; a++ {
			p[a] += m * s.Vel[3*i+a]
		}
	}
	if mTot == 0 {
		return
	}
	for i := 0; i < s.N(); i++ {
		for a := 0; a < 3; a++ {
			s.Vel[3*i+a] -= p[a] / mTot
		}
	}
}

// Thermo is one thermodynamic sample, collected every Options.ThermoEvery
// steps like the paper's kinetic/potential energy, temperature and pressure
// records (Sec. 6.1).
type Thermo struct {
	Step        int
	Kinetic     float64 // eV
	Potential   float64 // eV
	Temperature float64 // K
	Pressure    float64 // bar
	BoxZ        float64 // A (tracks deformation)
	StressZZ    float64 // bar (useful for strain-stress curves)
}

// NewThermo is the thermo sample of n atoms in box at step, from their
// kinetic energy ke, potential energy pe and virial (trace trW, zz
// component wzz): T = 2 ke / ((3n-3) k_B), P = (n k_B T + trW/3)/V and
// sigma_zz = (n k_B T/3 + wzz)/V, both in bar. The serial engine and the
// domain-decomposed one both sample through it, so their thermo bits
// agree whenever their sums do.
func NewThermo(step int, ke, pe, trW, wzz float64, n int, box *neighbor.Box) Thermo {
	tK := 0.0
	if dof := float64(3*n - 3); dof > 0 {
		tK = 2 * ke / (dof * units.Boltzmann)
	}
	nkt := float64(n) * units.Boltzmann * tK
	vol := box.Volume()
	return Thermo{
		Step:        step,
		Kinetic:     ke,
		Potential:   pe,
		Temperature: tK,
		Pressure:    (nkt + trW/3) / vol * units.PressureEVA3ToBar,
		BoxZ:        box.L[2],
		StressZZ:    (nkt/3 + wzz) / vol * units.PressureEVA3ToBar,
	}
}

// Deform applies a constant true strain rate to one box axis with affine
// remapping of coordinates — the tensile deformation protocol of the
// Fig. 7 nanocrystal experiment (strain rate 5e8 / s along z).
type Deform struct {
	Axis int
	// RatePerPs is the engineering strain rate in 1/ps (5e8 1/s = 5e-4
	// 1/ps).
	RatePerPs float64
}

// Options configures a simulation run.
type Options struct {
	// Dt is the time step in ps.
	Dt float64
	// Spec is the neighbor requirement of the potential (cutoff + skin).
	Spec neighbor.Spec
	// RebuildEvery rebuilds the neighbor list every this many steps
	// (paper: 50, with a 2 A buffer).
	RebuildEvery int
	// ThermoEvery collects thermodynamic data every this many steps
	// (paper: 20).
	ThermoEvery int
	// Thermostat is optional; nil runs NVE.
	Thermostat Thermostat
	// Deform optionally strains the box each step.
	Deform *Deform
	// SafetyCheck verifies the skin criterion at every rebuild and
	// returns an error if the cadence was too lax.
	SafetyCheck bool
	// Workers is the goroutine count for neighbor-list construction.
	// Zero defaults from the potential's own budget when it reports one
	// (WorkerHinter, i.e. a core.Engine); <= 1 builds serially.
	Workers int
	// CaptureEvery snapshots the configuration every this many steps into
	// Sim.Traj (0 disables). Exploration drivers (internal/learn) consume
	// the captured trajectory offline — e.g. to compute ensemble force
	// deviation — without re-running the dynamics.
	CaptureEvery int
}

// Sim drives one serial MD run.
type Sim struct {
	Sys *System
	Pot Potential
	Opt Options

	// LoopTime is the wall time spent in Run, summed over calls: the "MD
	// loop time" of Sec. 6.3, as in domain.Stats.LoopTime.
	LoopTime time.Duration
	// Thermo log, one entry per sample.
	Log []Thermo
	// Traj holds the captured trajectory, one Snapshot every
	// Options.CaptureEvery steps (empty when capture is disabled).
	Traj []Snapshot

	list    *neighbor.List
	tracker *neighbor.Tracker
	res     core.Result
	step    int
}

// NewSim validates options and prepares a simulation.
func NewSim(sys *System, pot Potential, opt Options) (*Sim, error) {
	if opt.Dt <= 0 {
		return nil, fmt.Errorf("md: time step %g must be positive", opt.Dt)
	}
	if opt.RebuildEvery <= 0 {
		opt.RebuildEvery = 50
	}
	if opt.ThermoEvery <= 0 {
		opt.ThermoEvery = 20
	}
	if len(sys.Vel) != 3*sys.N() {
		sys.Vel = make([]float64, 3*sys.N())
	}
	opt.Workers = NeighborWorkers(opt.Workers, pot)
	return &Sim{
		Sys:     sys,
		Pot:     pot,
		Opt:     opt,
		tracker: neighbor.NewTracker(opt.Spec.Skin),
	}, nil
}

// Step advances the system by one velocity-Verlet step.
//
// The steady state is allocation-free: list rebuilds, thermo sampling and
// trajectory capture run on a fixed cadence and are the only paths allowed
// to touch the heap.
//
//dp:noalloc
func (s *Sim) Step() error {
	sys := s.Sys
	n := sys.N()
	dt := s.Opt.Dt

	if s.list == nil {
		//dp:allow noalloc first-call warm-up builds the initial neighbor list
		if err := s.rebuild(); err != nil {
			return err
		}
		if err := s.compute(s.step + 1); err != nil {
			return err
		}
	}

	// Half kick + drift.
	for i := 0; i < n; i++ {
		im := units.ForceToAccel / sys.Mass(i)
		for a := 0; a < 3; a++ {
			sys.Vel[3*i+a] += 0.5 * dt * s.res.Force[3*i+a] * im
			sys.Pos[3*i+a] += dt * sys.Vel[3*i+a]
		}
	}

	// Optional box deformation (affine remap).
	if d := s.Opt.Deform; d != nil {
		scale := 1 + d.RatePerPs*dt
		sys.Box.L[d.Axis] *= scale
		for i := 0; i < n; i++ {
			sys.Pos[3*i+d.Axis] *= scale
		}
		s.tracker.Invalidate() // affine remap breaks the displacement check
	}

	s.step++
	need := s.step%s.Opt.RebuildEvery == 0
	if s.Opt.SafetyCheck && s.tracker.NeedsRebuild(sys.Pos) {
		// The fixed cadence was too lax (or the box deformed): rebuild
		// immediately instead of running on a stale list.
		need = true
	}
	if need {
		//dp:allow noalloc cadence rebuild (every RebuildEvery steps) re-bins the cell lists
		if err := s.rebuild(); err != nil {
			return err
		}
	}

	// New forces + half kick.
	if err := s.compute(s.step); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		im := units.ForceToAccel / sys.Mass(i)
		for a := 0; a < 3; a++ {
			sys.Vel[3*i+a] += 0.5 * dt * s.res.Force[3*i+a] * im
		}
	}

	if s.Opt.Thermostat != nil {
		s.Opt.Thermostat.Apply(sys, dt)
	}
	if s.step%s.Opt.ThermoEvery == 0 {
		//dp:allow noalloc thermo sampling appends to the log on the ThermoEvery cadence
		s.sample()
	}
	//dp:allow noalloc trajectory capture copies positions on the CaptureEvery cadence
	s.capture()
	return nil
}

// compute evaluates the potential at the current positions into s.res
// and checks the result for step. A non-finite result drops the neighbor
// list, so the next Step rebuilds it and evaluates and checks the forces
// again before its first kick instead of kicking with the bad ones.
func (s *Sim) compute(step int) error {
	sys := s.Sys
	if err := s.Pot.Compute(sys.Pos, sys.Types, sys.N(), s.list, &sys.Box, &s.res); err != nil {
		return err
	}
	if pe := CheckFinite(&s.res, sys.N(), step); pe != nil {
		s.list = nil
		return pe
	}
	return nil
}

// PhysicsError reports a potential evaluation with a non-finite energy or
// force. Step returns it before any velocity or position takes a value
// from that evaluation. The state is the last finite one when the
// evaluation was the step's first (the warm-up); otherwise the step is
// partway done: velocities half-kicked, positions drifted, and
// CurrentStep already counting it. A domain run returns it the same way
// from the rank that evaluated the atom.
type PhysicsError struct {
	Step     int    // the step being taken: CurrentStep()+1 when it began
	Atom     int    // the lowest atom with a non-finite quantity (its global id in a domain run); -1: only the total energy
	Quantity string // "energy" or "force"
}

func (e *PhysicsError) Error() string {
	if e.Atom < 0 {
		return fmt.Sprintf("md: step %d: non-finite total %s", e.Step, e.Quantity)
	}
	return fmt.Sprintf("md: step %d: non-finite %s on atom %d", e.Step, e.Quantity, e.Atom)
}

// CheckFinite returns a *PhysicsError naming the lowest of the first n
// atoms whose energy (when the potential reports per-atom energies) or
// force is not finite, or the total energy, and nil when everything is
// finite. Sim.Step and the domain loop run it before every kick.
func CheckFinite(res *core.Result, n, step int) *PhysicsError {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for i := 0; i < n; i++ {
		q := ""
		switch {
		case i < len(res.AtomEnergy) && bad(res.AtomEnergy[i]):
			q = "energy"
		case bad(res.Force[3*i]) || bad(res.Force[3*i+1]) || bad(res.Force[3*i+2]):
			q = "force"
		default:
			continue
		}
		//dp:allow noalloc failure path: the run stops on this error
		return &PhysicsError{Step: step, Atom: i, Quantity: q}
	}
	if bad(res.Energy) {
		//dp:allow noalloc failure path: the run stops on this error
		return &PhysicsError{Step: step, Atom: -1, Quantity: "energy"}
	}
	return nil
}

// Run advances nsteps steps, adding their wall time to LoopTime.
func (s *Sim) Run(nsteps int) error {
	start := time.Now()
	defer func() { s.LoopTime += time.Since(start) }()
	for i := 0; i < nsteps; i++ {
		if err := s.Step(); err != nil {
			if _, ok := err.(*PhysicsError); ok {
				return err // names its step already
			}
			return fmt.Errorf("md: step %d: %w", s.step, err)
		}
	}
	return nil
}

// CurrentStep returns the number of completed steps.
func (s *Sim) CurrentStep() int { return s.step }

// Result exposes the most recent potential evaluation.
func (s *Sim) Result() *core.Result { return &s.res }

// PotentialEnergy evaluates the potential at the current positions
// (refreshing forces), for callers needing E outside the step cadence.
func (s *Sim) PotentialEnergy() (float64, error) {
	if s.list == nil {
		if err := s.rebuild(); err != nil {
			return 0, err
		}
	}
	if err := s.Pot.Compute(s.Sys.Pos, s.Sys.Types, s.Sys.N(), s.list, &s.Sys.Box, &s.res); err != nil {
		return 0, err
	}
	return s.res.Energy, nil
}

func (s *Sim) rebuild() error {
	sys := s.Sys
	// Wrap coordinates before rebuilding so the cell search stays valid
	// under long drifts.
	for i := 0; i < sys.N(); i++ {
		sys.Box.Wrap(sys.Pos[3*i : 3*i+3])
	}
	l, err := neighbor.Build(s.Opt.Spec, sys.Pos, sys.Types, sys.N(), &sys.Box, s.Opt.Workers)
	if err != nil {
		return err
	}
	s.list = l
	s.tracker.Record(sys.Pos)
	return nil
}

func (s *Sim) sample() {
	w := &s.res.Virial
	s.Log = append(s.Log, NewThermo(s.step, s.Sys.KineticEnergy(), s.res.Energy, w[0]+w[4]+w[8], w[8], s.Sys.N(), &s.Sys.Box))
}
