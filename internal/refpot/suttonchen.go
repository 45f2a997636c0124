package refpot

import (
	"fmt"
	"math"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// SuttonChen is the Sutton-Chen EAM metal potential,
//
//	E_i = eps * [ 1/2 sum_j (a/r_ij)^n  -  c * sqrt(rho_i) ],
//	rho_i = sum_j (a/r_ij)^m,
//
// used here as the "ab initio" oracle for copper training data and as the
// empirical-force-field comparator the paper's nanocrystalline application
// discusses (Sec. 8.1: EFFs "yield the strain-stress curves" but lack
// accuracy for surface/stacking-fault energies).
//
// Because the embedding term couples the densities of both partners, the
// force on a local atom needs rho of its (possibly ghost) neighbors;
// SuttonChen therefore requires full periodic configurations
// (nloc == nall, box != nil). Parallel runs use DP or LJ.
type SuttonChen struct {
	// EpsEV is the energy scale in eV, A0 the length scale in Angstrom,
	// C the dimensionless embedding constant, N and M the pair and
	// density exponents.
	EpsEV, A0, C float64
	N, M         int
	// Rcut truncates both sums; the pair term is shift-corrected.
	Rcut float64
	rho  []float64
}

// NewSuttonChenCu returns the published copper parameterization
// (n = 9, m = 6, eps = 1.2382e-2 eV, c = 39.432, a = 3.61 A).
func NewSuttonChenCu() *SuttonChen {
	return &SuttonChen{EpsEV: 1.2382e-2, A0: 3.61, C: 39.432, N: 9, M: 6, Rcut: 7.2}
}

// Compute implements the md.Potential seam.
func (sc *SuttonChen) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	nall := len(pos) / 3
	if nloc != nall || box == nil {
		return fmt.Errorf("refpot: SuttonChen requires a full periodic configuration (nloc == nall, box set)")
	}
	out.AtomEnergy = tensor.Resize(out.AtomEnergy, nloc)
	out.Force = tensor.Resize(out.Force, 3*nall)
	clear(out.Force)
	out.Energy = 0
	out.Virial = [9]float64{}
	rc2 := sc.Rcut * sc.Rcut

	// Pass 1: densities.
	sc.rho = tensor.Resize(sc.rho, nloc)
	clear(sc.rho)
	for i := 0; i < nloc; i++ {
		for _, j := range list.Entries[i] {
			d := neighbor.Displacement(pos, i, int(j), box)
			r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			sc.rho[i] += math.Pow(sc.A0/math.Sqrt(r2), float64(sc.M))
		}
	}

	// Shift so the pair term vanishes at the cutoff.
	pairShift := math.Pow(sc.A0/sc.Rcut, float64(sc.N))

	// Pass 2: energy and forces.
	for i := 0; i < nloc; i++ {
		var pair float64
		// d(-c sqrt(rho))/drho = -c / (2 sqrt(rho))
		var dFi float64
		if sc.rho[i] > 0 {
			dFi = -sc.C / (2 * math.Sqrt(sc.rho[i]))
		}
		for _, j32 := range list.Entries[i] {
			j := int(j32)
			d := neighbor.Displacement(pos, i, j, box)
			r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			vn := math.Pow(sc.A0/r, float64(sc.N))
			vm := math.Pow(sc.A0/r, float64(sc.M))
			pair += vn - pairShift

			var dFj float64
			if sc.rho[j] > 0 {
				dFj = -sc.C / (2 * math.Sqrt(sc.rho[j]))
			}
			// Full pair derivative dE/dr_ij: the pair term appears twice
			// in the double sum and both embeddings couple to r_ij,
			//   dE/dr = eps * [ -n vn / r - (dFi + dFj) m vm / r ].
			// Each (i, j) visit applies the full derivative to atom i;
			// the mirror visit (j, i) applies it to atom j.
			dEdr := sc.EpsEV * (-float64(sc.N)*vn/r - (dFi+dFj)*float64(sc.M)*vm/r)
			// F_i = -dE/dd * (d/r) summed over neighbors; dE/dd_a = dEdr * d_a / r.
			fOverR := -dEdr / r
			for a := 0; a < 3; a++ {
				out.Force[3*i+a] -= fOverR * d[a]
				for b := 0; b < 3; b++ {
					out.Virial[a*3+b] += 0.5 * fOverR * d[a] * d[b]
				}
			}
		}
		ei := sc.EpsEV * (0.5*pair - sc.C*math.Sqrt(sc.rho[i]))
		out.AtomEnergy[i] = ei
		out.Energy += ei
	}
	return nil
}
