// Package refpot provides analytic reference potentials with exact forces
// and virials. They play two roles in this reproduction:
//
//   - "Ab initio" oracle: the paper trains DP models on DFT data; with no
//     DFT available, these analytic potentials generate the training labels
//     (internal/train), which preserves the full training pipeline.
//   - EFF baseline: the paper motivates DP against empirical force fields
//     (Sec. 3.1, Sec. 8.1); these are exactly such force fields, usable
//     through the same md.Potential seam that LAMMPS pair styles occupy.
//
// All potentials write into core.Result so they are drop-in replacements
// for the DP evaluators.
package refpot

import (
	"fmt"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// LennardJones is a truncated-and-shifted 12-6 potential with per
// type-pair parameters. It works with full neighbor lists (each pair seen
// from both sides): energies and virials carry a 1/2 factor, and forces on
// local atoms are complete without reverse communication, so it is safe in
// both serial and domain-decomposed runs.
type LennardJones struct {
	// Eps[i][j] and Sigma[i][j] are the pair parameters in eV and A.
	Eps, Sigma [][]float64
	// Rcut truncates the interaction; the energy is shifted to zero there.
	Rcut float64
}

// NewLennardJones builds a single-type LJ potential.
func NewLennardJones(eps, sigma, rcut float64) *LennardJones {
	return &LennardJones{
		Eps:   [][]float64{{eps}},
		Sigma: [][]float64{{sigma}},
		Rcut:  rcut,
	}
}

// Compute implements the md.Potential seam.
func (lj *LennardJones) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	nall := len(pos) / 3
	out.AtomEnergy = tensor.Resize(out.AtomEnergy, nloc)
	out.Force = tensor.Resize(out.Force, 3*nall)
	clear(out.Force)
	out.Energy = 0
	out.Virial = [9]float64{}
	rc2 := lj.Rcut * lj.Rcut

	for i := 0; i < nloc; i++ {
		ti := types[i]
		if ti >= len(lj.Eps) {
			return fmt.Errorf("refpot: type %d outside LJ table", ti)
		}
		var ei float64
		for _, j32 := range list.Entries[i] {
			j := int(j32)
			d := neighbor.Displacement(pos, i, j, box)
			r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			tj := types[j]
			eps, sig := lj.Eps[ti][tj], lj.Sigma[ti][tj]
			sr2 := sig * sig / r2
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			shift := lj.shift(eps, sig)
			phi := 4*eps*(sr12-sr6) - shift
			// F_i = -(24 eps / r^2) (2 sr12 - sr6) d with d = r_j - r_i.
			fOverR := 24 * eps * (2*sr12 - sr6) / r2
			ei += 0.5 * phi
			for a := 0; a < 3; a++ {
				out.Force[3*i+a] -= fOverR * d[a]
				for b := 0; b < 3; b++ {
					// Same convention as descriptor.ProdVirial:
					// W_ab = -1/2 sum d_a dE/dd_b = +1/2 fOverR d_a d_b.
					out.Virial[a*3+b] += 0.5 * fOverR * d[a] * d[b]
				}
			}
		}
		out.AtomEnergy[i] = ei
		out.Energy += ei
	}
	return nil
}

func (lj *LennardJones) shift(eps, sig float64) float64 {
	sr2 := sig * sig / (lj.Rcut * lj.Rcut)
	sr6 := sr2 * sr2 * sr2
	return 4 * eps * (sr6*sr6 - sr6)
}
