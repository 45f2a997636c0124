package refpot

import (
	"fmt"
	"math"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// ToyWater is a flexible three-site water model used as the "ab initio"
// oracle for the water experiments: harmonic intramolecular O-H bonds and
// H-O-H angle, plus intermolecular Lennard-Jones (O-O) and screened
// Coulomb (Yukawa) interactions between all sites.
//
// Atoms are organised as consecutive (O, H, H) triplets: molecule k owns
// atoms 3k (type 0, O), 3k+1 and 3k+2 (type 1, H). Like SuttonChen it
// requires full periodic configurations because the molecular topology is
// defined by global indices.
type ToyWater struct {
	// Bond: E = 1/2 KBond (r - R0)^2 per O-H bond.
	KBond, R0 float64
	// Angle: E = 1/2 KAngle (theta - Theta0)^2.
	KAngle, Theta0 float64
	// LJ between oxygens.
	EpsOO, SigmaOO float64
	// Site charges in e and Yukawa screening length in A.
	QO, QH, Lambda float64
	// Rcut truncates intermolecular terms (energy-shifted Yukawa).
	Rcut float64
}

// NewToyWater returns the default parameterization: TIP3P-like geometry
// and charges, softened for stable large time steps.
func NewToyWater() *ToyWater {
	return &ToyWater{
		KBond:   28.0, // eV/A^2
		R0:      0.9572,
		KAngle:  3.0, // eV/rad^2
		Theta0:  104.52 * math.Pi / 180,
		EpsOO:   0.0067, // eV (TIP3P 0.6364 kJ/mol)
		SigmaOO: 3.1507,
		QO:      -0.834,
		QH:      0.417,
		Lambda:  4.0,
		Rcut:    6.0,
	}
}

// coulombEV is the Coulomb constant in eV*A/e^2.
const coulombEV = 14.399645

// Compute implements the md.Potential seam.
func (tw *ToyWater) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	nall := len(pos) / 3
	if nloc != nall || box == nil {
		return fmt.Errorf("refpot: ToyWater requires a full periodic configuration")
	}
	if nloc%3 != 0 {
		return fmt.Errorf("refpot: ToyWater needs (O,H,H) triplets, got %d atoms", nloc)
	}
	out.AtomEnergy = tensor.Resize(out.AtomEnergy, nloc)
	clear(out.AtomEnergy)
	out.Force = tensor.Resize(out.Force, 3*nall)
	clear(out.Force)
	out.Energy = 0
	out.Virial = [9]float64{}

	nmol := nloc / 3
	// Intramolecular terms via topology.
	for k := 0; k < nmol; k++ {
		o, h1, h2 := 3*k, 3*k+1, 3*k+2
		tw.bond(pos, o, h1, box, out)
		tw.bond(pos, o, h2, box, out)
		tw.angle(pos, o, h1, h2, box, out)
	}

	// Intermolecular terms via the neighbor list (full list; half factors).
	rc2 := tw.Rcut * tw.Rcut
	for i := 0; i < nloc; i++ {
		var ei float64
		qi := tw.charge(types[i])
		for _, j32 := range list.Entries[i] {
			j := int(j32)
			if j/3 == i/3 {
				continue // same molecule: handled by bond/angle terms
			}
			d := neighbor.Displacement(pos, i, j, box)
			r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			var phi, dphi float64 // energy, dE/dr

			// Yukawa: C q_i q_j exp(-r/lambda)/r, energy-shifted at rcut.
			qq := coulombEV * qi * tw.charge(types[j])
			if qq != 0 {
				ex := math.Exp(-r / tw.Lambda)
				exC := math.Exp(-tw.Rcut / tw.Lambda)
				phi += qq*ex/r - qq*exC/tw.Rcut
				dphi += -qq * ex * (1/(r*r) + 1/(tw.Lambda*r))
			}
			// LJ between oxygens.
			if types[i] == 0 && types[j] == 0 {
				sr2 := tw.SigmaOO * tw.SigmaOO / r2
				sr6 := sr2 * sr2 * sr2
				sr12 := sr6 * sr6
				src2 := tw.SigmaOO * tw.SigmaOO / rc2
				src6 := src2 * src2 * src2
				phi += 4*tw.EpsOO*(sr12-sr6) - 4*tw.EpsOO*(src6*src6-src6)
				dphi += -24 * tw.EpsOO * (2*sr12 - sr6) / r
			}
			ei += 0.5 * phi
			// F_i = dphi/dr * d/r (see LJ derivation); virial half factor.
			g := dphi / r
			for a := 0; a < 3; a++ {
				out.Force[3*i+a] += g * d[a]
				for b := 0; b < 3; b++ {
					out.Virial[a*3+b] -= 0.5 * g * d[a] * d[b]
				}
			}
		}
		out.AtomEnergy[i] += ei
		out.Energy += ei
	}

	// Intramolecular energies were accumulated directly into Energy by
	// bond/angle; fold their per-molecule share into atom energies of the
	// oxygen site for reporting symmetry (already done inside bond/angle).
	return nil
}

func (tw *ToyWater) charge(t int) float64 {
	if t == 0 {
		return tw.QO
	}
	return tw.QH
}

// bond applies the harmonic O-H term.
func (tw *ToyWater) bond(pos []float64, i, j int, box *neighbor.Box, out *core.Result) {
	d := neighbor.Displacement(pos, i, j, box)
	r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
	e := 0.5 * tw.KBond * (r - tw.R0) * (r - tw.R0)
	dEdr := tw.KBond * (r - tw.R0)
	g := dEdr / r
	for a := 0; a < 3; a++ {
		// dE/dr_j = g*d_a, dE/dr_i = -g*d_a; F = -dE/dr.
		out.Force[3*j+a] -= g * d[a]
		out.Force[3*i+a] += g * d[a]
		for b := 0; b < 3; b++ {
			out.Virial[a*3+b] -= g * d[a] * d[b]
		}
	}
	out.Energy += e
	out.AtomEnergy[i] += e
}

// angle applies the harmonic H-O-H term with vertex at o.
func (tw *ToyWater) angle(pos []float64, o, h1, h2 int, box *neighbor.Box, out *core.Result) {
	d1 := neighbor.Displacement(pos, o, h1, box)
	d2 := neighbor.Displacement(pos, o, h2, box)
	r1 := math.Sqrt(d1[0]*d1[0] + d1[1]*d1[1] + d1[2]*d1[2])
	r2 := math.Sqrt(d2[0]*d2[0] + d2[1]*d2[1] + d2[2]*d2[2])
	dot := d1[0]*d2[0] + d1[1]*d2[1] + d1[2]*d2[2]
	c := dot / (r1 * r2)
	c = math.Max(-1+1e-12, math.Min(1-1e-12, c))
	theta := math.Acos(c)
	e := 0.5 * tw.KAngle * (theta - tw.Theta0) * (theta - tw.Theta0)
	out.Energy += e
	out.AtomEnergy[o] += e

	// dE/dcos = dE/dtheta * dtheta/dcos = KAngle*(theta-theta0) * (-1/sin).
	s := math.Sin(theta)
	if s < 1e-8 {
		return
	}
	dEdc := -tw.KAngle * (theta - tw.Theta0) / s
	// dcos/dd1_a = d2_a/(r1 r2) - c*d1_a/r1^2; similarly for d2.
	var g1, g2 [3]float64
	for a := 0; a < 3; a++ {
		g1[a] = dEdc * (d2[a]/(r1*r2) - c*d1[a]/(r1*r1))
		g2[a] = dEdc * (d1[a]/(r1*r2) - c*d2[a]/(r2*r2))
	}
	for a := 0; a < 3; a++ {
		// d1 = r_h1 - r_o: dE/dr_h1 = g1, dE/dr_h2 = g2, dE/dr_o = -(g1+g2).
		out.Force[3*h1+a] -= g1[a]
		out.Force[3*h2+a] -= g2[a]
		out.Force[3*o+a] += g1[a] + g2[a]
		for b := 0; b < 3; b++ {
			out.Virial[a*3+b] -= d1[a]*g1[b] + d2[a]*g2[b]
		}
	}
}
