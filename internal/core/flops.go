package core

import (
	"fmt"
	"math/rand"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/descriptor"
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
// slots is computed, once forward and once backward. It is NOT what the
// evaluator executes any more: the fused operators of the exact and the
// compressed path visit real neighbors only, and perf.Counter charges
// that executed work —
// ExecutedFLOPs is the model of it (TestFig3Shape holds the counter to
// it).
func (c *Config) FLOPsPerAtomStep(typeFrac []float64) float64 {
	// Every center type runs the same network shapes over the same padded
	// sections, so the composition only weights one number.
	const custom = descriptor.EnvFLOPsPerSlot + descriptor.ProdForceFLOPsPerEntry + descriptor.ProdVirialFLOPsPerEntry
	per := c.newFLOPModel().pipeline(c.Sel) + float64(c.Stride())*custom
	var total float64
	for _, frac := range typeFrac {
		total += frac * per
	}
	return total
}

// flopModel walks the evaluator's pipeline on representative networks
// (weights irrelevant, only the shapes are counted).
type flopModel struct {
	c        *Config
	emb, fit *nn.Net[float64]
}

func (c *Config) newFLOPModel() flopModel {
	rng := rand.New(rand.NewSource(1))
	return flopModel{
		c:   c,
		emb: nn.NewEmbeddingNet[float64](rng, c.EmbedWidths),
		fit: nn.NewFittingNet[float64](rng, c.DescriptorDim(), c.FitWidths, 0),
	}
}

// pipeline charges everything between Environment and ProdForce for one
// atom in the paper's padded convention — the materialised pipeline NVPROF
// measured: embedding forward+backward once over every slot of every
// section, the descriptor contractions over the stored matrices, and the
// per-atom tail.
//
//	T = G^T R~ / N        2*m*4*rows
//	dG = R~ dT^T / N      2*rows*m*4
//	dR~ = G dT / N        2*rows*m*4
func (fm flopModel) pipeline(sel []int) float64 {
	m := fm.c.M()
	rows := 0
	for _, n := range sel {
		rows += n
	}
	return embedFLOPsPerAtom(sel, fm.emb) + float64(3*2*m*4*rows) + fm.perAtom()
}

// perAtom charges the part of the pipeline that does not scale with the
// neighbor count: fitChunk's descriptor items and the fitting net on a
// batch of one.
//
//	D = T Tsub^T          2*m*ax*4
//	dT = dD Tsub          2*m*ax*4
//	dTsub = dD^T T        2*m*ax*4
func (fm flopModel) perAtom() float64 {
	m, ax := fm.c.M(), fm.c.MAxis
	return float64(3*2*m*ax*4) + float64(fm.fit.ForwardFLOPs(1, true)) + float64(fm.fit.BackwardFLOPs(1))
}

// Executed FLOPs per (real neighbor row, channel) of the exact operator's
// contractions (evalChunkExact), as it charges itself under CUSTOM: 4
// multiply-adds forward; backward the 4 of the output gradient dG and the
// 4 of the environment-row gradient dR~.
const (
	embedContractForwardFLOPs  = 8
	embedContractBackwardFLOPs = 8 + 8
)

// fused charges the exact operator for the real neighbor rows it visits:
// one traced embedding forward pass, whose trace the backward pass reads
// back, the net's backward pass, and the contractions.
func (fm flopModel) fused(rows int) float64 {
	per := float64(fm.emb.ForwardFLOPs(rows, true)) + float64(fm.emb.BackwardFLOPs(rows))
	return per + float64(rows)*float64(fm.c.M())*(embedContractForwardFLOPs+embedContractBackwardFLOPs)
}

// ExecutedFLOPs returns what the model charges ONE evaluation of a frame
// at the shapes the exact strategy executes — the number perf.Counter
// accumulates, where FLOPsPerAtomStep is the paper's padded convention.
// env is the frame's Environment output. The fused operator visits the
// real neighbor rows only (the rows of env.Off), once forward and once
// backward, so against the padded model the count drops with the fill of
// the neighbor sections. The
// customized operators are charged the way they charge themselves:
// Environment per padded slot plus the distance refresh per list entry,
// the force and virial products per real row too. (The compressed strategy replaces the embedding and contraction
// terms by compress.Fused*FLOPsPerChannel per real neighbor and is not
// modelled here.)
func (c *Config) ExecutedFLOPs(types []int, env *descriptor.EnvOut) (float64, error) {
	for i, t := range types[:env.Nloc] {
		if t < 0 || t >= c.NumTypes() {
			return 0, fmt.Errorf("atom %d has type %d outside model", i, t)
		}
	}
	rows := env.Off[len(env.Off)-1]
	fm := c.newFLOPModel()
	total := fm.fused(rows) + float64(env.Nloc)*fm.perAtom()
	entries := int64(env.Fmt.Kept())
	const prods = descriptor.ProdForceFLOPsPerEntry + descriptor.ProdVirialFLOPsPerEntry
	total += float64(descriptor.EnvFLOPs(env, entries)) + float64(rows)*prods
	return total, nil
}

// embedFLOPsPerAtom charges the embedding forward+backward work for one
// atom: every row of every section (sel[tj] rows; the padded c.Sel in the
// full-stride convention) runs through the net. All (center, neighbor)
// embedding nets share the same widths, so the charge is identical for
// every center type and composition averages are the value itself — the
// single source both FLOPsPerAtomStep and EmbedFLOPsPerAtomStep draw from,
// so the compression factor (total - embed + table)/total cannot drift out
// of sync with the total.
func embedFLOPsPerAtom(sel []int, emb *nn.Net[float64]) float64 {
	var per float64
	for _, rows := range sel {
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
	return embedFLOPsPerAtom(c.Sel, nn.NewEmbeddingNet[float64](rng, c.EmbedWidths))
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
