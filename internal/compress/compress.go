// Package compress implements the tabulated (compressed) embedding net of
// the paper's successors — Lu et al., "86 PFLOPS Deep Potential Molecular
// Dynamics simulation of 100 million atoms" and Li et al., "Scaling
// Molecular Dynamics with ab initio Accuracy to 149 Nanoseconds per Day".
// Both replace the embedding network, whose GEMMs dominate the SC '20
// time-to-solution, with a uniform-grid piecewise fifth-order polynomial
// per output channel: one table maps the scalar s(r) of a neighbor to all
// M embedding outputs and their s-derivatives, so the per-neighbor
// forward shrinks from three dense layers to one Horner sweep and the
// backward collapses to a dot product against the tabulated derivative.
//
// A Table is built once from the exact nn.Net by sampling values, first
// and second derivatives at the knots (nn.ForwardTaylor2, analytic
// Taylor-mode propagation — no finite differences) and quintic-Hermite
// matching each segment to both endpoints. The spline is therefore C²
// across knots and exact in value and slope at every knot, which keeps
// the tabulated force field conservative: the lookup's derivative is the
// exact analytic derivative of the lookup's value, so NVE energy
// conservation survives compression (asserted in internal/md).
//
// Interpolation error decays as O(h⁶) in value and O(h⁵) in derivative
// with segment width h (asserted by the convergence test); at the default
// resolution the float64 tables match the exact net to ~1e-10 and the
// float32 tables are limited by single-precision roundoff, not by the
// table.
package compress

import (
	"fmt"
	"math"

	"deepmd-go/internal/nn"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// coefPerSeg is the number of polynomial coefficients per segment
// (quintic: powers u⁰..u⁵).
const coefPerSeg = 6

// EvalFLOPsPerChannel is the analytic FLOP charge per (input row, output
// channel) of one lookup: the fused Horner/synthetic-division sweep
// computes the value (5 multiply-adds, 10) and the u-derivative from its
// partial sums (4 multiply-adds, 8), and the chain-rule 1/h factor adds
// one multiply; the charge rounds the 19 up to cover the per-row index
// arithmetic amortized across channels.
const EvalFLOPsPerChannel = 20

// DefaultNSeg is the default table resolution. Over the default domain
// this puts the quintic's O(h⁵) derivative error near double-precision
// roundoff while the whole two-type water model's tables still fit in
// ~13 MB — the same "memory for FLOPs" trade the successor papers make.
const DefaultNSeg = 1024

// Spec configures table construction.
type Spec struct {
	// SMin, SMax bound the tabulated domain of the scaled distance
	// s(r). The exact pipeline produces s in [0, s(r_min)]: padding
	// slots and out-of-cutoff neighbors contribute s = 0 exactly, and s
	// grows as 1/r toward small separations. SMax therefore has to cover
	// the closest physically reachable pair; inputs outside the domain
	// continue the edge polynomial linearly, keeping value and
	// derivative consistent (see Table.locate).
	SMin, SMax float64
	// NSeg is the number of uniform segments; <= 0 selects DefaultNSeg.
	NSeg int
}

// DefaultSpec returns the default domain for a model with the given
// cutoff radius: [0, 1/max(0.1*rcut, 0.25 A)]. Physical first-neighbor
// distances sit well above a tenth of the cutoff (water: r >= 0.95 A
// against rcut 6; copper: r >= 2.5 A against rcut 8), so the domain
// covers every reachable s with margin while keeping the knot spacing,
// and with it the documented table error, resolution-limited rather than
// range-limited.
func DefaultSpec(rcut float64) Spec {
	return Spec{SMin: 0, SMax: 1 / math.Max(0.1*rcut, 0.25), NSeg: DefaultNSeg}
}

// WithDefaults fills unset fields from DefaultSpec(rcut) and validates
// the domain: a zero Spec becomes the default table for that cutoff, a
// partially-set one keeps its explicit fields.
func (sp Spec) WithDefaults(rcut float64) (Spec, error) {
	if sp.NSeg <= 0 {
		sp.NSeg = DefaultNSeg
	}
	if sp.SMax == 0 && sp.SMin == 0 {
		d := DefaultSpec(rcut)
		sp.SMin, sp.SMax = d.SMin, d.SMax
	}
	if !validDomain(sp.SMin, sp.SMax) {
		return sp, fmt.Errorf("compress: invalid domain [%g, %g]", sp.SMin, sp.SMax)
	}
	return sp, nil
}

// validDomain requires a finite, non-empty interval: NaN fails the
// ordering comparison, and either edge at ±Inf would make the knot
// spacing degenerate and silently fill the table with NaN coefficients.
func validDomain(smin, smax float64) bool {
	return smax > smin && !math.IsInf(smin, 0) && !math.IsInf(smax, 0)
}

// Table is one compressed embedding net: M output channels fit as
// uniform-grid piecewise quintics over [SMin, SMax]. Coefficients are
// stored per segment as six contiguous channel slabs (power-major,
// channel-minor), so the lookup's inner loop walks six parallel arrays
// with unit stride across channels — the layout auto-vectorizes and is
// the CPU analogue of the coalesced per-warp table reads in the GPU
// implementations.
type Table[T tensor.Float] struct {
	SMin, SMax float64
	NSeg       int
	M          int
	// Coef holds NSeg*6*M coefficients: the u^p coefficient of channel c
	// in segment g lives at Coef[(g*6+p)*M+c], with u = (s-knot_g)/h the
	// normalized in-segment coordinate in [0, 1]. Normalizing keeps the
	// Horner arithmetic well conditioned at any resolution; the
	// derivative picks up the chain-rule factor invH.
	Coef []T

	invH T
}

// Build fits the scalar-input net (an embedding net: 1 -> M) as a quintic
// table. Each segment's six coefficients are determined by value, first
// and second derivative at both endpoint knots, all sampled analytically
// from the exact net, so neighboring segments share their endpoint data:
// the spline is C² at every interior knot and reproduces the net's value
// and slope at knots exactly.
func Build(net *nn.Net[float64], sp Spec) (*Table[float64], error) {
	if sp.NSeg <= 0 || !validDomain(sp.SMin, sp.SMax) {
		return nil, fmt.Errorf("compress: invalid spec {[%g, %g], %d segments} (WithDefaults fills a zero Spec)", sp.SMin, sp.SMax, sp.NSeg)
	}
	m := net.OutDim()
	nseg := sp.NSeg
	h := (sp.SMax - sp.SMin) / float64(nseg)

	// Sample the net once per knot (nseg+1 knots); the Hermite data of
	// segment g is knots g and g+1.
	vals := make([][]float64, nseg+1)
	der1 := make([][]float64, nseg+1)
	der2 := make([][]float64, nseg+1)
	for k := 0; k <= nseg; k++ {
		vals[k], der1[k], der2[k] = net.ForwardTaylor2(sp.SMin + float64(k)*h)
	}

	tb := &Table[float64]{
		SMin: sp.SMin, SMax: sp.SMax, NSeg: nseg, M: m,
		Coef: make([]float64, nseg*coefPerSeg*m),
		invH: 1 / h,
	}
	for g := 0; g < nseg; g++ {
		base := g * coefPerSeg * m
		for c := 0; c < m; c++ {
			// Hermite data in normalized coordinates: derivatives scale
			// by h per order.
			f0, f1 := vals[g][c], vals[g+1][c]
			d0, d1 := der1[g][c]*h, der1[g+1][c]*h
			c0, c1 := der2[g][c]*h*h, der2[g+1][c]*h*h
			// Quintic Hermite basis in monomial form on u in [0, 1].
			tb.Coef[base+0*m+c] = f0
			tb.Coef[base+1*m+c] = d0
			tb.Coef[base+2*m+c] = c0 / 2
			tb.Coef[base+3*m+c] = -10*f0 - 6*d0 - 1.5*c0 + 10*f1 - 4*d1 + 0.5*c1
			tb.Coef[base+4*m+c] = 15*f0 + 8*d0 + 1.5*c0 - 15*f1 + 7*d1 - c1
			tb.Coef[base+5*m+c] = -6*f0 - 3*d0 - 0.5*c0 + 6*f1 - 3*d1 + 0.5*c1
		}
	}
	return tb, nil
}

// Convert copies the table into the target precision (the mixed-precision
// evaluator's float32 tables are derived from the float64 build, exactly
// as its network weights are).
func Convert[Dst tensor.Float](src *Table[float64]) *Table[Dst] {
	out := &Table[Dst]{
		SMin: src.SMin, SMax: src.SMax, NSeg: src.NSeg, M: src.M,
		Coef: make([]Dst, len(src.Coef)),
		invH: Dst(src.invH),
	}
	for i, v := range src.Coef {
		out.Coef[i] = Dst(v)
	}
	return out
}

// H returns the segment width.
func (tb *Table[T]) H() float64 { return (tb.SMax - tb.SMin) / float64(tb.NSeg) }

// Bytes returns the coefficient storage size.
func (tb *Table[T]) Bytes() int {
	var z T
	n := 8
	if _, ok := any(z).(float32); ok {
		n = 4
	}
	return len(tb.Coef) * n
}

// locate maps an input to its segment index, normalized in-segment
// coordinate, and out-of-domain offset delta = s - nearest edge (zero
// for in-domain inputs). Out-of-domain inputs continue the edge
// polynomial *linearly*: the caller adds delta times the edge slope to
// the value while returning the edge slope as the derivative, so the
// tabulated surface stays C¹ and the derivative stays the exact gradient
// of the value everywhere — clamping the value flat while reporting a
// nonzero slope would make the compressed force field non-conservative
// for pairs closer than the domain floor. Below SMin the extrapolation
// is inert in practice: the exact path's cutoff smoothing pins every
// non-neighbor and padding slot to s = 0 = SMin exactly and can produce
// nothing smaller. NaN inputs land on the lower edge with delta 0. A
// knot input lands at u = 0 of its right segment (u = 1 of the last
// segment for s = SMax), where the Hermite construction reproduces the
// net exactly; no input — finite or not — can index out of bounds.
func (tb *Table[T]) locate(s T) (int, T, T) {
	x := float64(s)
	if !(x > tb.SMin) { // catches x <= SMin and NaN
		d := x - tb.SMin
		if math.IsNaN(d) {
			d = 0
		}
		return 0, 0, T(d)
	}
	if x >= tb.SMax {
		return tb.NSeg - 1, 1, T(x - tb.SMax)
	}
	u := (x - tb.SMin) * float64(tb.invH)
	g := int(u)
	if g >= tb.NSeg { // rounding guard just below SMax
		return tb.NSeg - 1, 1, 0
	}
	return g, T(u - float64(g)), 0
}

// Eval writes the M channel values and s-derivatives of one input into g
// and dg (len >= M each).
func (tb *Table[T]) Eval(s T, g, dg []T) {
	seg, u, delta := tb.locate(s)
	tb.evalSeg(seg, u, g[:tb.M], dg[:tb.M])
	if delta != 0 {
		extrapolate(g[:tb.M], dg[:tb.M], delta)
	}
}

// extrapolate continues the edge polynomial linearly: g += dg*delta with
// dg unchanged, keeping value and derivative consistent out of domain.
func extrapolate[T tensor.Float](g, dg []T, delta T) {
	for c, d := range dg {
		g[c] += d * delta
	}
}

// evalSeg runs the fused Horner sweep of one segment: six contiguous
// coefficient slabs, unit stride across channels. Value and derivative
// come from one synthetic-division pass — the derivative accumulates the
// value recursion's partial sums (d_{k+1} = d_k·u + p_k gives p'(u)) —
// which avoids the four coefficient-scaling multiplies a separate
// derivative Horner would spend per channel. At u = 0 the value reduces
// to the stored knot sample bitwise and the derivative to c1·invH, the
// knot-exactness the Hermite construction promises. The channels the
// vectorized kernel covers (hornerCover, bit-identical to the scalar
// recursion: all of them on AVX-512, the lane multiple on AVX2) skip the
// loop here; the remainder runs it.
func (tb *Table[T]) evalSeg(seg int, u T, g, dg []T) {
	m := tb.M
	cs := tb.Coef[seg*coefPerSeg*m : (seg+1)*coefPerSeg*m]
	invH := tb.invH
	c := hornerCover(cs, u, invH, g, dg, m)
	if c == m {
		return
	}
	c0 := cs[0*m : 1*m]
	c1 := cs[1*m : 2*m]
	c2 := cs[2*m : 3*m]
	c3 := cs[3*m : 4*m]
	c4 := cs[4*m : 5*m]
	c5 := cs[5*m : 6*m]
	_ = g[m-1]
	_ = dg[m-1]
	for ; c < m; c++ {
		p := c5[c]
		d := p
		p = p*u + c4[c]
		d = d*u + p
		p = p*u + c3[c]
		d = d*u + p
		p = p*u + c2[c]
		d = d*u + p
		p = p*u + c1[c]
		d = d*u + p
		g[c] = p*u + c0[c]
		dg[c] = d * invH
	}
}

// EvalBatch evaluates n = len(s) inputs, writing an n x M value matrix
// into g and the matching s-derivative matrix into dg (both length
// n*M, fully overwritten — arena TakeUninit-safe). This is the
// compressed replacement for the embedding net's batched forward AND
// backward: the derivative rows are the entire backward pass. Time and
// the analytic FLOPs report under the GEMM category, where the work it
// replaces was attributed (Fig. 3).
func (tb *Table[T]) EvalBatch(ctr *perf.Counter, s []T, g, dg []T) {
	start := ctr.Now()
	m := tb.M
	for i, si := range s {
		seg, u, delta := tb.locate(si)
		tb.evalSeg(seg, u, g[i*m:(i+1)*m], dg[i*m:(i+1)*m])
		if delta != 0 {
			extrapolate(g[i*m:(i+1)*m], dg[i*m:(i+1)*m], delta)
		}
	}
	if ctr != nil {
		ctr.Observe(perf.CatGEMM, start, int64(len(s))*int64(m)*EvalFLOPsPerChannel)
	}
}
