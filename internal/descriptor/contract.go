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
// and, per atom, the descriptor products the evaluator's fitChunk runs
// between the fused operators and the fitting net:
//
//	ContractDescriptor          D[c][k] = Σ_j T[j][c] · T[j][k], k < M_axis
//	ContractDescriptorBackward  dT from dD = ∂E/∂D, written over T
//
// T and dT are 4 x M, channel-minor — the layout of the evaluator's
// descriptor items — which makes the channel index the unit-stride SIMD
// axis of every inner loop. Rows accumulate in slot order whatever
// the tile boundaries are, and a caller adds sections in section order, so
// the result for one atom does not depend on which chunk, tile, worker or
// coalesced frame evaluates it.
//
// The generic loops below are the reference. The amd64 contraction
// kernels (contract_amd64.s, picked through cpufeat: one AVX2-encoded set
// that AVX-512 hosts run too) cover the leading lane multiple of the
// channels with FMA and lane-parallel partial sums, so a SIMD family
// agrees with the reference to summation roundoff — |diff| <=
// (terms+4)·eps·Σ|term| per output, the recursive-summation bound the
// differential tests assert — not bitwise. The descriptor products sum
// every output in the order of the naive GEMMs they replaced, bit for
// bit; on AVX-512 they run as masked zmm kernels with the same mul/add
// sequence (FuzzDescriptorProducts), elsewhere as the Go loops.

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

// ContractDescriptor writes one atom's descriptor D = T·T[:ax]ᵀ from its
// 4 x m item t as the m x ax row-major block the fitting net reads:
// d[c*ax+k] = Σ_j t[j*m+c]·t[j*m+k]. The four products of an entry sum as
// ((p0+p1)+p2)+p3 in lanes that each start from zero, the order of the
// naive GemmNT's dot. On AVX-512 the kernel runs (contract_amd64.s, lanes
// over k), bit for bit the loop of descriptorGo.
func ContractDescriptor[T tensor.Float](t []T, m, ax int, d []T) {
	if !descForwardKernel(t, m, ax, d) {
		descriptorGo(t, m, ax, d)
	}
}

// descriptorGo is ContractDescriptor's reference loop.
func descriptorGo[T tensor.Float](t []T, m, ax int, d []T) {
	t0, t1, t2, t3 := t[:m], t[m:2*m], t[2*m:3*m], t[3*m:4*m]
	for c := 0; c < m; c++ {
		a0, a1, a2, a3 := t0[c], t1[c], t2[c], t3[c]
		dc := d[c*ax : (c+1)*ax]
		for k := range dc {
			var s0, s1, s2, s3 T
			s0 += a0 * t0[k]
			s1 += a1 * t1[k]
			s2 += a2 * t2[k]
			s3 += a3 * t3[k]
			dc[k] = s0 + s1 + s2 + s3
		}
	}
}

// ContractDescriptorBackward overwrites one atom's 4 x m item t with its
// gradient, given dD, the m x ax gradient of D = T·T[:ax]ᵀ:
//
//	dT[c][j]    = Σ_{k<ax} dD[c][k]·T[k][j]      k ascending
//	dTsub[k][j] = Σ_{c<m}  dD[c][k]·T[c][j]      c ascending
//	t[j*m+c]    = (dT[c][j] + dTsub[c][j] for c < ax) · scale
//
// Every sum starts from zero and runs in the order of the naive Gemm and
// GemmTN it replaced, and the head add and the scale follow in that
// order. buf is 8·ax elements of scratch: dTsub and a copy of T's head,
// which the loop over c still reads after overwriting it. On AVX-512 the
// kernel runs (contract_amd64.s: dTsub with lanes over k, dT with lanes
// over c), bit for bit the loop of descriptorBackwardGo.
func ContractDescriptorBackward[T tensor.Float](dD []T, m, ax int, scale T, t, buf []T) {
	if !descBackwardKernel(dD, m, ax, scale, t, buf) {
		descriptorBackwardGo(dD, m, ax, scale, t, buf)
	}
}

// descriptorBackwardGo is ContractDescriptorBackward's reference loop.
func descriptorBackwardGo[T tensor.Float](dD []T, m, ax int, scale T, t, buf []T) {
	t0, t1, t2, t3 := t[:m], t[m:2*m], t[2*m:3*m], t[3*m:4*m]
	sub := buf[:4*ax]
	for k := 0; k < ax; k++ {
		var s0, s1, s2, s3 T
		for c := 0; c < m; c++ {
			v := dD[c*ax+k]
			s0 += v * t0[c]
			s1 += v * t1[c]
			s2 += v * t2[c]
			s3 += v * t3[c]
		}
		sub[4*k], sub[4*k+1], sub[4*k+2], sub[4*k+3] = s0, s1, s2, s3
	}
	h0, h1, h2, h3 := buf[4*ax:5*ax], buf[5*ax:6*ax], buf[6*ax:7*ax], buf[7*ax:8*ax]
	copy(h0, t0)
	copy(h1, t1)
	copy(h2, t2)
	copy(h3, t3)
	for c := 0; c < m; c++ {
		var s0, s1, s2, s3 T
		for k, v := range dD[c*ax : (c+1)*ax] {
			s0 += v * h0[k]
			s1 += v * h1[k]
			s2 += v * h2[k]
			s3 += v * h3[k]
		}
		if c < ax {
			s0 += sub[4*c]
			s1 += sub[4*c+1]
			s2 += sub[4*c+2]
			s3 += sub[4*c+3]
		}
		t0[c], t1[c], t2[c], t3[c] = s0*scale, s1*scale, s2*scale, s3*scale
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
