package descriptor

import (
	"math"

	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// netDeriv is dE/dR~ laid out exactly like EnvOut.R, a row per row of the
// environment (EnvOut.Off). The products read it in the network's
// precision and widen each element on load (Sec. 5.2.3: the
// mixed-precision model hands its float32 network gradient to
// double-precision operators).

// ProdRows is the one body of the customized force and virial operators,
// for center atoms [lo, hi): per row of its sections (EnvOut.Off) the
// contraction of the network gradient with the environment-matrix
// derivative, computed once and fed to both products,
//
//	dd_a     = sum_c netDeriv[i,k,c] * dR~[i,k,c]/dd_a
//	F[j]    -= dd        (neighbor)
//	F[i]    += sum_k dd  (center, accumulated in registers)
//	W_ab    -= d_a * dd_b
//
// in atom, section, slot order. dR~/dd is not stored: each slot rebuilds it
// from its geometry row (d, s'(r)) and R~[0] = s with slotJacobian's
// operations, so the result is the one a stored Jacobian would give, bit
// for bit. A row the operator left zero (a neighbor coincident with its
// center) is skipped. force (3*nall) and w are
// accumulated into; either may be nil to skip that product. It returns the
// slots visited, which is what the operators charge FLOPs for.
//
//dp:noalloc
func ProdRows[T tensor.Float](netDeriv []T, env *EnvOut, lo, hi int, force []float64, w *[9]float64) int64 {
	nt := len(env.Fmt.Sel)
	var w0, w1, w2, w3, w4, w5, w6, w7, w8 float64
	for i := lo; i < hi; i++ {
		var fi0, fi1, fi2 float64
		for t := 0; t < nt; t++ {
			b, e := env.Off[i*nt+t], env.Off[i*nt+t+1]
			idx := env.Fmt.Section(i, t)[:e-b]
			nd := netDeriv[b*4 : e*4]
			rs := env.R[b*4 : e*4]
			geo := env.Geo[b*4 : e*4]
			for k, j32 := range idx {
				g := geo[4*k : 4*k+4]
				ds := g[3]
				if ds == 0 {
					continue
				}
				// slotJacobian inlined: dr[c*3+a] is the factor of n_c in dd_a.
				x, y, z := g[0], g[1], g[2]
				inv := 1 / math.Sqrt(x*x+y*y+z*z)
				s := rs[4*k]
				q := s * inv
				dq := ds*inv - s*inv*inv
				rx, ry, rz := x*inv, y*inv, z*inv
				xq, yq, zq := x*dq, y*dq, z*dq
				n0, n1, n2, n3 := float64(nd[4*k]), float64(nd[4*k+1]), float64(nd[4*k+2]), float64(nd[4*k+3])
				d0 := n0*(ds*rx) + n1*(xq*rx+q) + n2*(yq*rx) + n3*(zq*rx)
				d1 := n0*(ds*ry) + n1*(xq*ry) + n2*(yq*ry+q) + n3*(zq*ry)
				d2 := n0*(ds*rz) + n1*(xq*rz) + n2*(yq*rz) + n3*(zq*rz+q)
				if force != nil {
					j := int(j32)
					force[3*j] -= d0
					force[3*j+1] -= d1
					force[3*j+2] -= d2
					fi0 += d0
					fi1 += d1
					fi2 += d2
				}
				if w != nil {
					w0 -= x * d0
					w1 -= x * d1
					w2 -= x * d2
					w3 -= y * d0
					w4 -= y * d1
					w5 -= y * d2
					w6 -= z * d0
					w7 -= z * d1
					w8 -= z * d2
				}
			}
		}
		if force != nil {
			force[3*i] += fi0
			force[3*i+1] += fi1
			force[3*i+2] += fi2
		}
	}
	if w != nil {
		for x, v := range [9]float64{w0, w1, w2, w3, w4, w5, w6, w7, w8} {
			w[x] += v
		}
	}
	return int64(env.Off[hi*nt] - env.Off[lo*nt])
}

// ProdBlocks is the number of contiguous center-atom blocks a frame's
// products are cut into — a property of the operator, not of the machine.
// Floating-point scatter is order-dependent, so a force call that wants the
// same bits at every worker count cannot let the worker count decide how
// the sums associate: each block scatters into a private partial force
// buffer and virial, and SumPartials adds them in block order. Workers only
// decide who computes a block. 16 keeps every worker of the budgets this
// repo runs (1 to 8) within one block of an even share, for 16·24 = 384
// bytes of partials per atom (DESIGN.md "One fan-out per force call").
const ProdBlocks = 16

// BlockRange returns block b's share [lo, hi) of n items.
func BlockRange(n, b int) (lo, hi int) {
	return b * n / ProdBlocks, (b + 1) * n / ProdBlocks
}

// SumPartials writes dst[x] = sum over blocks of partials[b*len(dst)+x], in
// block order, for x in [lo, hi).
//
//dp:noalloc
func SumPartials(partials, dst []float64, lo, hi int) {
	n := len(dst)
	copy(dst[lo:hi], partials[lo:hi])
	for b := 1; b < ProdBlocks; b++ {
		p := partials[b*n+lo : b*n+hi]
		for x, v := range p {
			dst[lo+x] += v
		}
	}
}

// ProdForce is the optimized customized force operator: ProdRows over every
// center atom, force alone. force must hold 3*nall elements and is
// accumulated into (callers zero it first).
func ProdForce(ctr *perf.Counter, netDeriv []float64, env *EnvOut, force []float64) {
	start := ctr.Now()
	slots := ProdRows(netDeriv, env, 0, env.Nloc, force, nil)
	ctr.Observe(perf.CatCUSTOM, start, slots*ProdForceFLOPsPerEntry)
}

// ProdForceBaseline computes the same contraction the way the baseline CPU
// operator did: slot-major over the whole table (slot k of every atom's
// section, then slot k+1: poor locality across atoms), with a freshly
// allocated scratch vector per slot and every slot's Jacobian rebuilt
// (slotJacobian). Returns a newly allocated force array.
func ProdForceBaseline(ctr *perf.Counter, netDeriv []float64, env *EnvOut, nall int) []float64 {
	start := ctr.Now()
	force := make([]float64, 3*nall)
	eachSlotMajor(env, func(i, j, x int) {
		dd := make([]float64, 3) // per-slot temporary
		nd := netDeriv[4*x : 4*x+4]
		var dr [12]float64
		slotJacobian(env.R[4*x], env.Geo[4*x:4*x+4], dr[:])
		for a := 0; a < 3; a++ {
			for c := 0; c < 4; c++ {
				dd[a] += nd[c] * dr[c*3+a]
			}
		}
		for a := 0; a < 3; a++ {
			force[3*j+a] -= dd[a]
			force[3*i+a] += dd[a]
		}
	})
	ctr.Observe(perf.CatCUSTOM, start, paddedSlots(env)*ProdForceFLOPsPerEntry)
	return force
}

// eachSlotMajor calls f(i, j, x) for every row x of the environment —
// center i, neighbor j — slot-major: section by section, slot k of every
// atom that has one before slot k+1.
func eachSlotMajor(env *EnvOut, f func(i, j, x int)) {
	sel := env.Fmt.Sel
	nt := len(sel)
	for t := 0; t < nt; t++ {
		for k := 0; k < sel[t]; k++ {
			for i := 0; i < env.Nloc; i++ {
				if x := env.Off[i*nt+t] + k; x < env.Off[i*nt+t+1] {
					f(i, int(env.Fmt.Section(i, t)[k]), x)
				}
			}
		}
	}
}

// paddedSlots is Nloc x sum(Sel), the slots the paper's padded layout had
// and the operators' analytic charges still count.
func paddedSlots(env *EnvOut) int64 {
	n := int64(0)
	for _, s := range env.Fmt.Sel {
		n += int64(s)
	}
	return int64(env.Nloc) * n
}

// ProdVirial is the optimized customized virial operator: ProdRows over
// every center atom, the 3x3 virial tensor alone (in eV, row-major
// W[a*3+b]). tr(W)/3 / V is the interaction part of the pressure.
func ProdVirial(ctr *perf.Counter, netDeriv []float64, env *EnvOut) [9]float64 {
	start := ctr.Now()
	var w [9]float64
	slots := ProdRows(netDeriv, env, 0, env.Nloc, nil, &w)
	ctr.Observe(perf.CatCUSTOM, start, slots*ProdVirialFLOPsPerEntry)
	return w
}

// ProdVirialBaseline computes the virial the baseline way: slot-major with
// per-slot allocation, recomputing the contraction without sharing work
// with the force pass.
func ProdVirialBaseline(ctr *perf.Counter, netDeriv []float64, env *EnvOut) [9]float64 {
	start := ctr.Now()
	var w [9]float64
	eachSlotMajor(env, func(i, j, x int) {
		nd := netDeriv[4*x : 4*x+4]
		rij := env.Geo[4*x : 4*x+3]
		var dr [12]float64
		slotJacobian(env.R[4*x], env.Geo[4*x:4*x+4], dr[:])
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
	})
	ctr.Observe(perf.CatCUSTOM, start, paddedSlots(env)*ProdVirialFLOPsPerEntry)
	return w
}
