package md

import (
	"fmt"
	"math"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
)

// RelaxOptions configures a structural relaxation (energy minimization).
type RelaxOptions struct {
	// Spec is the neighbor requirement of the potential (cutoff + skin).
	Spec neighbor.Spec
	// MaxSteps bounds the number of accepted or rejected trial moves
	// (default 200).
	MaxSteps int
	// Ftol is the convergence threshold on the largest per-atom force
	// norm, eV/A (default 1e-2).
	Ftol float64
	// StepMax caps the largest single-atom displacement per trial move in
	// Angstrom (default 0.1), the trust radius of the line search.
	StepMax float64
	// Workers is the goroutine count for neighbor-list construction.
	// Zero defaults from the potential's own budget when it reports one
	// (WorkerHinter); <= 1 builds serially.
	Workers int
}

// RelaxResult reports how a relaxation ended.
type RelaxResult struct {
	// Steps is the number of trial moves consumed.
	Steps int
	// Energy is the potential energy at the final configuration (eV).
	Energy float64
	// Fmax is the largest per-atom force norm at the final configuration
	// (eV/A).
	Fmax float64
	// Converged reports whether Fmax fell below Ftol within MaxSteps.
	Converged bool
}

// Relax minimizes the potential energy of sys in place by damped steepest
// descent with a backtracking step size: each trial moves every atom along
// its force, scaled so the largest displacement never exceeds the trust
// radius; moves that raise the energy are reverted and halve the step,
// accepted ones grow it back. The neighbor list is rebuilt before every
// evaluation, so the descent stays valid under arbitrary displacements.
// Velocities are untouched. The run is deterministic: same system, same
// potential, same options — same trajectory.
func Relax(sys *System, pot Potential, opt RelaxOptions) (*RelaxResult, error) {
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 200
	}
	if opt.Ftol <= 0 {
		opt.Ftol = 1e-2
	}
	if opt.StepMax <= 0 {
		opt.StepMax = 0.1
	}
	opt.Workers = NeighborWorkers(opt.Workers, pot)
	n := sys.N()
	evaluate := func(out *core.Result) error {
		for i := 0; i < n; i++ {
			sys.Box.Wrap(sys.Pos[3*i : 3*i+3])
		}
		list, err := neighbor.Build(opt.Spec, sys.Pos, sys.Types, n, &sys.Box, opt.Workers)
		if err != nil {
			return err
		}
		return pot.Compute(sys.Pos, sys.Types, n, list, &sys.Box, out)
	}

	var res core.Result
	if err := evaluate(&res); err != nil {
		return nil, fmt.Errorf("md: relax: %w", err)
	}
	energy, fmax := res.Energy, maxForceNorm(res.Force, n)
	step := opt.StepMax
	prev := make([]float64, 3*n)
	out := &RelaxResult{Energy: energy, Fmax: fmax}
	for out.Steps = 0; out.Steps < opt.MaxSteps; out.Steps++ {
		if fmax <= opt.Ftol {
			out.Converged = true
			break
		}
		// Scale the move so the fastest atom travels exactly `step`.
		scale := step / fmax
		copy(prev, sys.Pos)
		for i := range sys.Pos {
			sys.Pos[i] += scale * res.Force[i]
		}
		if err := evaluate(&res); err != nil {
			return nil, fmt.Errorf("md: relax: step %d: %w", out.Steps, err)
		}
		if res.Energy > energy {
			// Uphill: revert and shrink the trust radius. The forces must
			// be refreshed at the reverted geometry before the next trial.
			copy(sys.Pos, prev)
			step *= 0.5
			if err := evaluate(&res); err != nil {
				return nil, fmt.Errorf("md: relax: step %d: %w", out.Steps, err)
			}
			continue
		}
		energy, fmax = res.Energy, maxForceNorm(res.Force, n)
		step = math.Min(step*1.1, opt.StepMax)
	}
	out.Energy, out.Fmax = energy, fmax
	out.Converged = out.Converged || fmax <= opt.Ftol
	return out, nil
}

// maxForceNorm returns the largest per-atom force magnitude in eV/A.
func maxForceNorm(f []float64, n int) float64 {
	var m float64
	for i := 0; i < n; i++ {
		v := f[3*i]*f[3*i] + f[3*i+1]*f[3*i+1] + f[3*i+2]*f[3*i+2]
		if v > m {
			m = v
		}
	}
	return math.Sqrt(m)
}
