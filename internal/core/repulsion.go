package core

import (
	"math"

	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perf"
)

// Core-repulsion prior: an optional analytic short-range pair term
//
//	phi(r) = A * (1 - r/rc)^3 / r        for r < rc, else 0
//
// added to the network energy. DeePMD-kit ships the same safeguard as its
// pairwise tabulated/ZBL hybrid models: a network trained only on
// physically sampled configurations has no data inside the core region,
// so an analytic wall guarantees trajectories cannot collapse through it.
// The prior has no trainable parameters; the networks fit the residual.
// It vanishes smoothly (C2) at rc, which should sit below the shortest
// physically sampled distance so the physical region is untouched.

// repulsionEnergy accumulates the prior into out (energy, atomic
// energies, forces, virial), double precision, using the raw neighbor
// list. Each (i, j) visit contributes half the pair energy and the full
// pair force on i, the same full-list convention as the reference
// potentials.
func repulsionEnergy(ctr *perf.Counter, a, rc float64, pos []float64, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) {
	if a == 0 || rc <= 0 {
		return
	}
	start := ctr.Now()
	rc2 := rc * rc
	var flops int64
	for i := 0; i < nloc; i++ {
		var ei float64
		for _, j32 := range list.Entries[i] {
			j := int(j32)
			d := neighbor.Displacement(pos, i, j, box)
			dx, dy, dz := d[0], d[1], d[2]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			u := 1 - r/rc
			phi := a * u * u * u / r
			// dphi/dr = -A [3 u^2 / (rc r) + u^3 / r^2]
			dphi := -a * (3*u*u/(rc*r) + u*u*u/r2)
			ei += 0.5 * phi
			// F_i = (dphi/r) * d with d = r_j - r_i (refpot convention).
			g := dphi / r
			out.Force[3*i] += g * dx
			out.Force[3*i+1] += g * dy
			out.Force[3*i+2] += g * dz
			out.Virial[0] -= 0.5 * g * dx * dx
			out.Virial[1] -= 0.5 * g * dx * dy
			out.Virial[2] -= 0.5 * g * dx * dz
			out.Virial[3] -= 0.5 * g * dy * dx
			out.Virial[4] -= 0.5 * g * dy * dy
			out.Virial[5] -= 0.5 * g * dy * dz
			out.Virial[6] -= 0.5 * g * dz * dx
			out.Virial[7] -= 0.5 * g * dz * dy
			out.Virial[8] -= 0.5 * g * dz * dz
			flops += 40
		}
		out.AtomEnergy[i] += ei
		out.Energy += ei
	}
	ctr.Observe(perf.CatCUSTOM, start, flops)
}
