package core

import (
	"math/rand"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/nn"
)

// FLOPsPerAtomStep returns the analytic floating point operations needed to
// evaluate energy and forces for one atom of each type for one MD step,
// weighted by typeFrac (the composition of the system; must sum to 1).
//
// This is the library's NVPROF substitute: the per-category kernel charges
// are summed along the exact pipeline of the optimized evaluator —
// Environment, embedding forward+backward, descriptor contractions, fitting
// forward+backward, ProdForce and ProdVirial. The paper's measured totals
// (Sec. 6.1: 19.8 MFLOPs/atom/step for water, 64.9 for copper, a ratio of
// ~3.3) are reproduced in shape by this model: the embedding work scales
// with the padded neighbor count, which is what makes copper ~3.5x water.
//
// The count is full-stride on purpose — the paper's convention: NVPROF
// measured the branch-free padded layout, where every one of the Stride()
// slots is computed. It is NOT what the evaluator executes any more: the
// batched path runs each section at its chunk's largest real-neighbor
// count and the compressed path's fused operator visits real neighbors
// only, and perf.Counter charges that executed work (the model evaluated
// at the executed section lengths reproduces the counter; TestFig3Shape).
func (c *Config) FLOPsPerAtomStep(typeFrac []float64) float64 {
	rng := rand.New(rand.NewSource(1))
	stride := c.Stride()
	m := c.M()
	ax := c.MAxis

	// Representative networks for counting (weights irrelevant).
	emb := nn.NewEmbeddingNet[float64](rng, c.EmbedWidths)
	fit := nn.NewFittingNet[float64](rng, c.DescriptorDim(), c.FitWidths, 0)

	var total float64
	for ci, frac := range typeFrac {
		if frac == 0 {
			continue
		}
		// Embedding: every padded slot is processed (branch-free layout).
		per := embedFLOPsPerAtom(c, emb)
		// Descriptor contractions per atom:
		//   T = G^T R~ / N        2*m*4*stride
		//   D = T Tsub^T          2*m*ax*4
		//   dT = dD Tsub          2*m*ax*4
		//   dTsub = dD^T T        2*m*ax*4
		//   dG = R~ dT^T / N      2*stride*m*4
		//   dR~ = G dT / N        2*stride*m*4
		per += float64(2*m*4*stride) + float64(3*2*m*ax*4) + float64(2*2*stride*m*4)
		// Fitting net, batch of one atom.
		per += float64(fit.ForwardFLOPs(1, true))
		per += float64(fit.BackwardFLOPs(1))
		// Customized operators.
		per += float64(stride) * 45 // Environment
		per += float64(stride) * 30 // ProdForce
		per += float64(stride) * 42 // ProdVirial
		total += frac * per
		_ = ci
	}
	return total
}

// embedFLOPsPerAtom charges the embedding forward+backward work for one
// atom: every padded neighbor slot of every section runs through the
// net. All (center, neighbor) embedding nets share the same widths, so
// the charge is identical for every center type and composition averages
// are the value itself — the single source both FLOPsPerAtomStep and
// EmbedFLOPsPerAtomStep draw from, so the compression factor
// (total - embed + table)/total cannot drift out of sync with the total.
func embedFLOPsPerAtom(c *Config, emb *nn.Net[float64]) float64 {
	var per float64
	for tj := range c.Sel {
		rows := c.Sel[tj]
		per += float64(emb.ForwardFLOPs(rows, true))
		per += float64(emb.BackwardFLOPs(rows))
	}
	return per
}

// EmbedFLOPsPerAtomStep returns the embedding-net share of
// FLOPsPerAtomStep: the per-neighbor forward and backward network work
// that model compression replaces with a table lookup. The share grows
// with the padded neighbor count, which is why compression pays more for
// copper (sel 500) than water (sel 138) — exactly the trend of the
// successor papers. Center-type independent (see embedFLOPsPerAtom), so
// no composition argument is needed.
func (c *Config) EmbedFLOPsPerAtomStep() float64 {
	rng := rand.New(rand.NewSource(1))
	return embedFLOPsPerAtom(c, nn.NewEmbeddingNet[float64](rng, c.EmbedWidths))
}

// CompressedEmbedFLOPsPerAtomStep returns the tabulated replacement's
// per-atom cost: one Horner sweep per padded neighbor slot
// (compress.EvalFLOPsPerChannel per channel, value + derivative) plus the
// collapsed backward dot (2 FLOPs per channel). The ratio against
// EmbedFLOPsPerAtomStep is the compression factor the Summit projection
// uses (internal/perfmodel). Full-stride like FLOPsPerAtomStep — the
// paper's convention; the fused operator the evaluator runs charges
// compress.FusedForwardFLOPsPerChannel + FusedBackwardFLOPsPerChannel per
// (real neighbor, channel) under CUSTOM instead, recomputed Horner sweep
// included.
func (c *Config) CompressedEmbedFLOPsPerAtomStep() float64 {
	return float64(c.Stride()) * float64(c.M()) * (compress.EvalFLOPsPerChannel + 2)
}
