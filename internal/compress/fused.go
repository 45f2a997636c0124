package compress

import "deepmd-go/internal/tensor"

// This file is the fused descriptor operator of the compressed path: the
// table lookup and the descriptor contraction of one (atom, neighbor-type
// section) in one pass, the way the paper's successors run it (kernel
// fusion + redundancy removal, arXiv 2004.11658 Sec. 3.2-3.3). With
// G_k = g(s_k) the tabulated embedding row of neighbor k and R~_k its
// environment row (s_k = R~_k[0]),
//
//	forward:   T[j][c]  += Σ_k G_k[c] · R~_k[j]
//	backward:  dR~_k[j]  = Σ_c G_k[c] · dT[j][c]
//	           ds_k      = Σ_j R~_k[j] · Σ_c g'(s_k)[c] · dT[j][c]
//
// Neither G nor dG/ds of the section is ever stored: FusedTile rows at a
// time are Horner-evaluated into a cache-resident tile and contracted on
// the spot, and the backward pass recomputes the tile instead of reading
// it back. Both passes stop at the section's real-neighbor count n
// (descriptor.EnvOut.Count): rows at and beyond it have R~ = 0 exactly
// and contribute nothing, so they are not visited.
//
// T and dT are 4 x M, channel-minor (the transpose of the evaluator's
// M x 4 descriptor items), which makes the channel index the unit-stride
// SIMD axis of every inner loop. Rows accumulate in slot order and a
// caller adds sections in section order, so the result for one atom does
// not depend on which chunk, worker or coalesced frame evaluates it.
//
// The generic kernels below are the reference. The amd64 kernels
// (fused_amd64.s, picked through cpufeat like the Horner sweeps: one
// AVX2-encoded set that AVX-512 hosts run too) cover the leading lane
// multiple of the channels with FMA and lane-parallel partial sums, so a
// SIMD family agrees with the reference to summation roundoff —
// |diff| <= (terms+4)·eps·Σ|term| per output, the recursive-summation
// bound the differential test asserts — not bitwise.

// FusedTile is the number of neighbor rows evaluated and contracted per
// step: 16 rows of value and derivative at the paper's M = 100 are 25 KB
// in float64 and 12.5 KB in float32, inside L1 next to the 6·M-coefficient
// segment slabs the Horner sweep streams.
const FusedTile = 16

// Executed FLOPs per (real neighbor row, channel) of the fused passes: the
// Horner sweep plus 4 multiply-adds of contraction forward, and the
// recomputed sweep plus 8 multiply-adds (value and derivative against the
// four dT rows) backward.
const (
	FusedForwardFLOPsPerChannel  = EvalFLOPsPerChannel + 8
	FusedBackwardFLOPsPerChannel = EvalFLOPsPerChannel + 16
)

// FusedScratchLen is the scratch length ContractForward and
// ContractBackward need for an m-channel table: the value and derivative
// tiles plus eight partial sums per tile row.
func FusedScratchLen(m int) int { return FusedTile * (2*m + 8) }

// ContractForward adds the first n rows of one section into the 4 x M
// accumulator: acc[j*M+c] += Σ_{k<n} g_c(rows[4k]) · rows[4k+j]. rows
// holds at least n environment rows of 4; nothing at or beyond row n is
// read. buf is scratch of FusedScratchLen(M) elements.
func (tb *Table[T]) ContractForward(rows []T, n int, acc, buf []T) {
	m := tb.M
	g, dg := buf[:FusedTile*m], buf[FusedTile*m:2*FusedTile*m]
	rows, acc = rows[:4*n], acc[:4*m]
	for k0 := 0; k0 < n; k0 += FusedTile {
		nk := min(FusedTile, n-k0)
		tile := rows[4*k0 : 4*(k0+nk)]
		tb.evalTile(tile, g, dg)
		c0 := contractFwdCover(g, tile, nk, m, acc)
		if c0 < m {
			contractFwdGo(g, tile, m, c0, acc)
		}
	}
}

// ContractBackward writes the environment-row gradient of the first n
// rows of one section: nd[4k+j] = Σ_c g_c(s_k)·dT[j*M+c], plus, into
// nd[4k], the lookup's own input gradient ds_k = Σ_j rows[4k+j] ·
// Σ_c g'_c(s_k)·dT[j*M+c]. rows and nd hold at least n rows of 4; nothing
// at or beyond row n is read or written. buf is scratch of
// FusedScratchLen(M) elements.
func (tb *Table[T]) ContractBackward(rows []T, n int, dT, nd, buf []T) {
	m := tb.M
	g, dg := buf[:FusedTile*m], buf[FusedTile*m:2*FusedTile*m]
	ab := buf[2*FusedTile*m : 2*FusedTile*m+8*FusedTile]
	rows, nd, dT = rows[:4*n], nd[:4*n], dT[:4*m]
	for k0 := 0; k0 < n; k0 += FusedTile {
		nk := min(FusedTile, n-k0)
		tile := rows[4*k0 : 4*(k0+nk)]
		tb.evalTile(tile, g, dg)
		c0 := contractBwdCover(g, dg, dT, nk, m, ab)
		if c0 == 0 {
			clear(ab[:8*nk])
		}
		if c0 < m {
			contractBwdGo(g, dg, dT, nk, m, c0, ab)
		}
		out := nd[4*k0 : 4*(k0+nk)]
		for i := 0; i < nk; i++ {
			r, s := tile[4*i:4*i+4], ab[8*i:8*i+8]
			out[4*i] = s[0] + (r[0]*s[4] + r[1]*s[5] + r[2]*s[6] + r[3]*s[7])
			out[4*i+1] = s[1]
			out[4*i+2] = s[2]
			out[4*i+3] = s[3]
		}
	}
}

// evalTile Horner-evaluates the rows of one tile (len(tile)/4 of them,
// input s = tile[4i]) into the leading rows of g and dg.
func (tb *Table[T]) evalTile(tile, g, dg []T) {
	m := tb.M
	for i := 0; 4*i < len(tile); i++ {
		tb.Eval(tile[4*i], g[i*m:(i+1)*m], dg[i*m:(i+1)*m])
	}
}

// contractFwdGo is the reference forward contraction of one tile over
// channels [c0, m): for every row in slot order, acc[j][c] += g[c]·r[j].
func contractFwdGo[T tensor.Float](g, tile []T, m, c0 int, acc []T) {
	a0, a1, a2, a3 := acc[c0:m], acc[m+c0:2*m], acc[2*m+c0:3*m], acc[3*m+c0:4*m]
	for i := 0; 4*i < len(tile); i++ {
		r0, r1, r2, r3 := tile[4*i], tile[4*i+1], tile[4*i+2], tile[4*i+3]
		gi := g[i*m+c0 : (i+1)*m]
		_, _, _, _ = a0[len(gi)-1], a1[len(gi)-1], a2[len(gi)-1], a3[len(gi)-1]
		for c, v := range gi {
			a0[c] += v * r0
			a1[c] += v * r1
			a2[c] += v * r2
			a3[c] += v * r3
		}
	}
}

// contractBwdGo is the reference backward contraction of one tile over
// channels [c0, m): for every row i it adds Σ_c g[c]·dT[j][c] into
// ab[8i+j] and Σ_c dg[c]·dT[j][c] into ab[8i+4+j], j = 0..3, summing
// channels in index order.
func contractBwdGo[T tensor.Float](g, dg, dT []T, nk, m, c0 int, ab []T) {
	t0, t1, t2, t3 := dT[c0:m], dT[m+c0:2*m], dT[2*m+c0:3*m], dT[3*m+c0:4*m]
	for i := 0; i < nk; i++ {
		gi, di := g[i*m+c0:(i+1)*m], dg[i*m+c0:(i+1)*m]
		_, _, _, _, _ = di[len(gi)-1], t0[len(gi)-1], t1[len(gi)-1], t2[len(gi)-1], t3[len(gi)-1]
		var a0, a1, a2, a3, b0, b1, b2, b3 T
		for c, v := range gi {
			d := di[c]
			a0 += v * t0[c]
			a1 += v * t1[c]
			a2 += v * t2[c]
			a3 += v * t3[c]
			b0 += d * t0[c]
			b1 += d * t1[c]
			b2 += d * t2[c]
			b3 += d * t3[c]
		}
		s := ab[8*i : 8*i+8]
		s[0] += a0
		s[1] += a1
		s[2] += a2
		s[3] += a3
		s[4] += b0
		s[5] += b1
		s[6] += b2
		s[7] += b3
	}
}
