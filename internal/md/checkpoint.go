package md

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// Checkpoint is a restartable snapshot of a simulation: positions,
// velocities, box, types and the step counter. Potentials and options are
// reconstructed by the caller (they are code, not state), which is the
// same division LAMMPS restart files use.
type Checkpoint struct {
	Step       int
	Pos, Vel   []float64
	Types      []int
	MassByType []float64
	BoxL       [3]float64
}

// SaveCheckpoint writes the current state of the simulation.
func (s *Sim) SaveCheckpoint(w io.Writer) error {
	cp := Checkpoint{
		Step:       s.step,
		Pos:        s.Sys.Pos,
		Vel:        s.Sys.Vel,
		Types:      s.Sys.Types,
		MassByType: s.Sys.MassByType,
		BoxL:       s.Sys.Box.L,
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("md: encoding checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a snapshot and returns the restored system and step
// counter. Pass the step to ResumeAt after constructing a new Sim.
func LoadCheckpoint(r io.Reader) (*System, int, error) {
	var cp Checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, 0, fmt.Errorf("md: decoding checkpoint: %w", err)
	}
	if err := cp.validate(); err != nil {
		return nil, 0, fmt.Errorf("md: checkpoint: %w", err)
	}
	sys := &System{
		Pos:        cp.Pos,
		Vel:        cp.Vel,
		Types:      cp.Types,
		MassByType: cp.MassByType,
	}
	sys.Box.L = cp.BoxL
	return sys, cp.Step, nil
}

// validate rejects a snapshot no simulation could continue from: arrays
// of mismatched length, a type without a mass, a mass that is not
// positive and finite, a non-finite coordinate or velocity, or a box edge
// that is not positive and finite.
func (cp *Checkpoint) validate() error {
	if len(cp.Pos) != 3*len(cp.Types) || len(cp.Vel) != 3*len(cp.Types) {
		return fmt.Errorf("%d positions and %d velocities for %d atoms", len(cp.Pos), len(cp.Vel), len(cp.Types))
	}
	for i, m := range cp.MassByType {
		if !(m > 0) || math.IsInf(m, 1) {
			return fmt.Errorf("type %d mass %g", i, m)
		}
	}
	for i, t := range cp.Types {
		if t < 0 || t >= len(cp.MassByType) {
			return fmt.Errorf("atom %d type %d outside [0, %d)", i, t, len(cp.MassByType))
		}
	}
	for i := range cp.Pos {
		if math.IsNaN(cp.Pos[i]) || math.IsInf(cp.Pos[i], 0) || math.IsNaN(cp.Vel[i]) || math.IsInf(cp.Vel[i], 0) {
			return fmt.Errorf("atom %d coordinate or velocity not finite", i/3)
		}
	}
	for k, l := range cp.BoxL {
		if !(l > 0) || math.IsInf(l, 1) {
			return fmt.Errorf("box edge %d is %g", k, l)
		}
	}
	return nil
}

// ResumeAt sets the step counter of a freshly constructed simulation so
// cadence-based actions (rebuilds, thermo) continue on schedule.
func (s *Sim) ResumeAt(step int) { s.step = step }
