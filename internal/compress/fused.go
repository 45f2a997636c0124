package compress

import "deepmd-go/internal/descriptor"

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
// the spot (descriptor.ContractForward/ContractBackward, the kernels the
// exact path's operator shares), and the backward pass recomputes the
// tile instead of reading it back. Both passes stop at the section's
// real-neighbor count n (descriptor.EnvOut.Count): rows at and beyond it
// have R~ = 0 exactly and contribute nothing, so they are not visited.
//
// T and dT are 4 x M, channel-minor; see descriptor/contract.go for the
// layout, the accumulation-order contract and the agreement bound between
// the SIMD kernels and the reference loops.

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
		descriptor.ContractForward(g, tile, m, acc)
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
		descriptor.ContractBackward(g, dg, dT, nk, m, ab)
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
