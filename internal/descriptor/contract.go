package descriptor

import "deepmd-go/internal/tensor"

// This file holds the descriptor contractions of the fused operators —
// the exact one (internal/core: embedding nets evaluated in row tiles) and
// the tabulated one (internal/compress: Horner-evaluated tiles). Both
// produce a cache-resident tile G of embedding rows, one row of M channels
// per real neighbor, and contract it on the spot with the neighbors'
// environment rows R~_k, so no embedding matrix is ever stored (kernel
// fusion + redundancy removal, arXiv 2004.11658 Sec. 3.2-3.3):
//
//	ContractForward    T[j][c]  += Σ_k G_k[c] · R~_k[j]
//	ContractBackward   a_k[j]    = Σ_c G_k[c] · dT[j][c]      (= dR~_k)
//	                   b_k[j]    = Σ_c G'_k[c] · dT[j][c]     (tabulated: G' = dG/ds)
//	ContractRows       a_k[j] alone                           (exact)
//	ContractOuter      dG_k[c]   = Σ_j R~_k[j] · dT[j][c]     (exact: fed to the net's backward)
//
// T and dT are 4 x M, channel-minor (the transpose of the evaluator's
// M x 4 descriptor items), which makes the channel index the unit-stride
// SIMD axis of every inner loop. Rows accumulate in slot order whatever
// the tile boundaries are, and a caller adds sections in section order, so
// the result for one atom does not depend on which chunk, tile, worker or
// coalesced frame evaluates it.
//
// The generic loops below are the reference. The amd64 kernels
// (contract_amd64.s, picked through cpufeat: one AVX2-encoded set that
// AVX-512 hosts run too) cover the leading lane multiple of the channels
// with FMA and lane-parallel partial sums, so a SIMD family agrees with
// the reference to summation roundoff — |diff| <= (terms+4)·eps·Σ|term|
// per output, the recursive-summation bound the differential tests assert
// — not bitwise.

// ContractForward adds the rows of one tile into the 4 x m accumulator:
// acc[j*m+c] += Σ_i g[i*m+c] · rows[4i+j] over the len(rows)/4 tile rows,
// in row order.
func ContractForward[T tensor.Float](g, rows []T, m int, acc []T) {
	nk := len(rows) / 4
	if nk == 0 {
		return
	}
	acc = acc[:4*m]
	if c0 := contractFwdCover(g, rows, nk, m, acc); c0 < m {
		contractFwdGo(g, rows, m, c0, acc)
	}
}

// ContractBackward overwrites ab[8i:8i+8] for every row i < nk of a tile
// with Σ_c g[i*m+c]·dT[j*m+c] (j = 0..3) followed by
// Σ_c dg[i*m+c]·dT[j*m+c], summing channels in index order.
func ContractBackward[T tensor.Float](g, dg, dT []T, nk, m int, ab []T) {
	if nk == 0 {
		return
	}
	dT = dT[:4*m]
	c0 := contractBwdCover(g, dg, dT, nk, m, ab)
	if c0 == 0 {
		clear(ab[:8*nk])
	}
	if c0 < m {
		contractBwdGo(g, dg, dT, nk, m, c0, ab)
	}
}

// ContractRows overwrites out[4i+j] = Σ_c g[i*m+c]·dT[j*m+c] for every row
// i < nk of a tile: ContractBackward's first sum alone, for the exact path,
// which has no second tile. The backward kernel contracts two tiles per
// pass, so the rows' upper half rides as the second one; an odd row count
// repeats the middle row. Both sums reduce in the same order, so a row's
// bits do not depend on which half it falls in. ab is scratch of
// 8·((nk+1)/2) elements.
func ContractRows[T tensor.Float](g, dT []T, nk, m int, out, ab []T) {
	h := (nk + 1) / 2
	ContractBackward(g[:h*m], g[(nk-h)*m:nk*m], dT, h, m, ab)
	for i := 0; i < h; i++ {
		copy(out[4*i:4*i+4], ab[8*i:8*i+4])
		copy(out[4*(nk-h+i):4*(nk-h+i)+4], ab[8*i+4:8*i+8])
	}
}

// ContractOuter overwrites the tile's output gradient: dG[i*m+c] =
// Σ_j rows[4i+j] · dT[j*m+c] for the len(rows)/4 tile rows. Four rows at
// a time this is ContractForward with the operands' roles exchanged — the
// four rows of dT play the tile, the transposed 4 x 4 block of environment
// rows plays R~, and the four output rows are the accumulator — so the
// forward kernel serves it. A last block of fewer than four rows runs
// zero-padded into buf (4·m elements of scratch) and is copied out, which
// keeps a row's bits independent of where it sits in the tile.
func ContractOuter[T tensor.Float](rows, dT []T, m int, dG, buf []T) {
	nk := len(rows) / 4
	dT, buf = dT[:4*m], buf[:4*m]
	var rt [16]T
	for i0 := 0; i0 < nk; i0 += 4 {
		nb := min(4, nk-i0)
		acc := buf
		if nb == 4 {
			acc = dG[i0*m : (i0+4)*m]
		} else {
			clear(rt[:])
		}
		for i := 0; i < nb; i++ {
			r := rows[4*(i0+i) : 4*(i0+i)+4]
			rt[i], rt[4+i], rt[8+i], rt[12+i] = r[0], r[1], r[2], r[3]
		}
		clear(acc)
		ContractForward(dT, rt[:], m, acc)
		if nb < 4 {
			copy(dG[i0*m:(i0+nb)*m], acc)
		}
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
