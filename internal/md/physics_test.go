package md

import (
	"errors"
	"math"
	"testing"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
)

// poisoned wraps a potential and spoils one quantity of its result while
// the simulation is taking step at.
type poisoned struct {
	inner Potential
	sim   *Sim
	at    int
	spoil func(*core.Result)
}

func (p *poisoned) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	if err := p.inner.Compute(pos, types, nloc, list, box, out); err != nil {
		return err
	}
	if p.sim != nil && p.sim.CurrentStep() == p.at {
		p.spoil(out)
	}
	return nil
}

// TestStepRejectsNonFiniteForce: a NaN force on atom 7 at step 3 stops
// the run with a *PhysicsError that names the step, the atom and the
// quantity, and no velocity or position takes the NaN, neither then nor
// on a further Step, which evaluates the forces again before it kicks.
func TestStepRejectsNonFiniteForce(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*core.Result)
		atom  int
		q     string
	}{
		{"force", func(r *core.Result) { r.Force[3*7+1] = math.NaN() }, 7, "force"},
		{"force and later atom energy", func(r *core.Result) {
			r.Force[3*9] = math.Inf(-1)
			r.AtomEnergy[12] = math.NaN()
		}, 9, "force"},
		{"atom energy", func(r *core.Result) { r.AtomEnergy[4] = math.Inf(1) }, 4, "energy"},
		{"total energy", func(r *core.Result) { r.Energy = math.NaN() }, -1, "energy"},
	} {
		sys, lj, spec := ljSystem(5)
		sys.InitVelocities(60, 6)
		pot := &poisoned{inner: lj, at: 3, spoil: c.spoil}
		sim, err := NewSim(sys, pot, Options{Dt: 0.002, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		pot.sim = sim
		var perr *PhysicsError
		for i := 0; i < 5 && err == nil; i++ {
			err = sim.Step()
		}
		if !errors.As(err, &perr) {
			t.Fatalf("%s: error %v, want a *PhysicsError", c.name, err)
		}
		if perr.Step != 3 || perr.Atom != c.atom || perr.Quantity != c.q {
			t.Fatalf("%s: got %+v, want step 3, atom %d, %s", c.name, *perr, c.atom, c.q)
		}
		finite := func(when string) {
			for i := range sys.Vel {
				if bad(sys.Vel[i]) || bad(sys.Pos[i]) {
					t.Fatalf("%s: state not finite at element %d %s", c.name, i, when)
				}
			}
		}
		finite("after the error")
		// The retry's first evaluation is still at step 3 and spoilt: it
		// must fail the same way before it kicks.
		err = sim.Step()
		if !errors.As(err, &perr) || perr.Atom != c.atom || perr.Quantity != c.q {
			t.Fatalf("%s: retry error %v, want the same *PhysicsError", c.name, err)
		}
		finite("after the retry")
	}
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
