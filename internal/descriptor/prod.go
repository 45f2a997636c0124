package descriptor

import (
	"time"

	"deepmd-go/internal/perf"
)

// netDeriv is dE/dR~ laid out exactly like EnvOut.R: Nloc x Stride x 4 in
// double precision (the mixed-precision model converts its float32 network
// gradient to float64 before calling these operators, Sec. 5.2.3).

// ProdForce is the optimized customized force operator: it contracts the
// network gradient with the environment-matrix derivative and scatters the
// result into the force array,
//
//	dd_a     = sum_c netDeriv[i,k,c] * DR[i,k,c,a]
//	F[j]    -= dd        (neighbor)
//	F[i]    += dd        (center)
//
// force must hold 3*nall elements and is accumulated into (callers zero it
// first). Slots padded with -1 contribute nothing; the loop is atom-major,
// accumulating the center-atom force in registers.
func ProdForce(ctr *perf.Counter, netDeriv []float64, env *EnvOut, force []float64) {
	start := time.Now()
	stride := env.Stride
	var flops int64
	for i := 0; i < env.Nloc; i++ {
		row := env.Fmt.Idx[i*stride : (i+1)*stride]
		base := i * stride
		var fi0, fi1, fi2 float64
		for k, j32 := range row {
			if j32 < 0 {
				continue
			}
			j := int(j32)
			nd := netDeriv[(base+k)*4 : (base+k)*4+4]
			dr := env.DR[(base+k)*12 : (base+k)*12+12]
			d0 := nd[0]*dr[0] + nd[1]*dr[3] + nd[2]*dr[6] + nd[3]*dr[9]
			d1 := nd[0]*dr[1] + nd[1]*dr[4] + nd[2]*dr[7] + nd[3]*dr[10]
			d2 := nd[0]*dr[2] + nd[1]*dr[5] + nd[2]*dr[8] + nd[3]*dr[11]
			force[3*j] -= d0
			force[3*j+1] -= d1
			force[3*j+2] -= d2
			fi0 += d0
			fi1 += d1
			fi2 += d2
			flops += ProdForceFLOPsPerEntry
		}
		force[3*i] += fi0
		force[3*i+1] += fi1
		force[3*i+2] += fi2
	}
	ctr.Observe(perf.CatCUSTOM, start, flops)
}

// ProdForceBaseline computes the same contraction the way the baseline CPU
// operator did: slot-major over the whole table (poor locality across
// atoms), with a freshly allocated scratch vector per slot and no padding
// skip until after the gather. Returns a newly allocated force array.
func ProdForceBaseline(ctr *perf.Counter, netDeriv []float64, env *EnvOut, nall int) []float64 {
	start := time.Now()
	force := make([]float64, 3*nall)
	stride := env.Stride
	for k := 0; k < stride; k++ { // slot-major: strided access over atoms
		for i := 0; i < env.Nloc; i++ {
			j32 := env.Fmt.Idx[i*stride+k]
			dd := make([]float64, 3) // per-slot temporary
			nd := netDeriv[(i*stride+k)*4 : (i*stride+k)*4+4]
			dr := env.DR[(i*stride+k)*12 : (i*stride+k)*12+12]
			for a := 0; a < 3; a++ {
				for c := 0; c < 4; c++ {
					dd[a] += nd[c] * dr[c*3+a]
				}
			}
			if j32 < 0 {
				continue
			}
			j := int(j32)
			for a := 0; a < 3; a++ {
				force[3*j+a] -= dd[a]
				force[3*i+a] += dd[a]
			}
		}
	}
	ctr.Observe(perf.CatCUSTOM, start, int64(env.Nloc)*int64(stride)*ProdForceFLOPsPerEntry)
	return force
}

// ProdVirial is the optimized customized virial operator: the 3x3 virial
// tensor (in eV, row-major W[a*3+b]) accumulated as
//
//	W_ab -= sum_slots d_a * dd_b
//
// where d is the slot displacement and dd the same contraction ProdForce
// scatters. tr(W)/3 / V is the interaction part of the pressure.
func ProdVirial(ctr *perf.Counter, netDeriv []float64, env *EnvOut) [9]float64 {
	start := time.Now()
	var w [9]float64
	stride := env.Stride
	var flops int64
	for i := 0; i < env.Nloc; i++ {
		base := i * stride
		row := env.Fmt.Idx[base : base+stride]
		for k, j32 := range row {
			if j32 < 0 {
				continue
			}
			nd := netDeriv[(base+k)*4 : (base+k)*4+4]
			dr := env.DR[(base+k)*12 : (base+k)*12+12]
			rij := env.Rij[(base+k)*3 : (base+k)*3+3]
			var dd [3]float64
			dd[0] = nd[0]*dr[0] + nd[1]*dr[3] + nd[2]*dr[6] + nd[3]*dr[9]
			dd[1] = nd[0]*dr[1] + nd[1]*dr[4] + nd[2]*dr[7] + nd[3]*dr[10]
			dd[2] = nd[0]*dr[2] + nd[1]*dr[5] + nd[2]*dr[8] + nd[3]*dr[11]
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					w[a*3+b] -= rij[a] * dd[b]
				}
			}
			flops += ProdVirialFLOPsPerEntry
		}
	}
	ctr.Observe(perf.CatCUSTOM, start, flops)
	return w
}

// ProdVirialBaseline computes the virial the baseline way: slot-major with
// per-slot allocation, recomputing the contraction without sharing work
// with the force pass.
func ProdVirialBaseline(ctr *perf.Counter, netDeriv []float64, env *EnvOut) [9]float64 {
	start := time.Now()
	var w [9]float64
	stride := env.Stride
	for k := 0; k < stride; k++ {
		for i := 0; i < env.Nloc; i++ {
			j32 := env.Fmt.Idx[i*stride+k]
			if j32 < 0 {
				continue
			}
			nd := netDeriv[(i*stride+k)*4 : (i*stride+k)*4+4]
			dr := env.DR[(i*stride+k)*12 : (i*stride+k)*12+12]
			rij := env.Rij[(i*stride+k)*3 : (i*stride+k)*3+3]
			dd := make([]float64, 3)
			for a := 0; a < 3; a++ {
				for c := 0; c < 4; c++ {
					dd[a] += nd[c] * dr[c*3+a]
				}
			}
			outer := make([]float64, 9)
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					outer[a*3+b] = rij[a] * dd[b]
				}
			}
			for x := range w {
				w[x] -= outer[x]
			}
		}
	}
	ctr.Observe(perf.CatCUSTOM, start, int64(env.Nloc)*int64(stride)*ProdVirialFLOPsPerEntry)
	return w
}
