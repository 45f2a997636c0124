package core

import (
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
// slots is computed. It is NOT what the evaluator executes any more: the
// batched path runs each section at its chunk's largest real-neighbor
// count and the compressed path's fused operator visits real neighbors
// only, and perf.Counter charges that executed work — ExecutedFLOPs is
// this same model at the executed shapes (TestFig3Shape holds the counter
// to it).
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
// atom whose neighbor-type sections run at the lengths sel: embedding
// forward+backward over every row, the descriptor contractions and the
// fitting net on a batch of one.
//
//	T = G^T R~ / N        2*m*4*rows
//	D = T Tsub^T          2*m*ax*4
//	dT = dD Tsub          2*m*ax*4
//	dTsub = dD^T T        2*m*ax*4
//	dG = R~ dT^T / N      2*rows*m*4
//	dR~ = G dT / N        2*rows*m*4
func (fm flopModel) pipeline(sel []int) float64 {
	m, ax := fm.c.M(), fm.c.MAxis
	rows := 0
	for _, n := range sel {
		rows += n
	}
	per := embedFLOPsPerAtom(sel, fm.emb)
	per += float64(2*m*4*rows) + float64(3*2*m*ax*4) + float64(2*2*rows*m*4)
	per += float64(fm.fit.ForwardFLOPs(1, true))
	per += float64(fm.fit.BackwardFLOPs(1))
	return per
}

// ExecutedFLOPs returns what the model charges ONE evaluation of a frame
// at the shapes the exact batched strategy executes — the number
// perf.Counter accumulates, where FLOPsPerAtomStep is the paper's padded
// convention. env is the frame's Environment output. The frame is grouped
// and chunked exactly as ComputeBatch does it (chunkJobs), every chunk
// runs its sections at chunkSel, and the customized operators are charged
// the way they charge themselves: Environment per padded slot plus the
// distance refresh, ProdForce and ProdVirial per list entry, skin entries
// included. (The compressed strategy replaces the embedding and
// contraction terms by compress.Fused*FLOPsPerChannel per real neighbor
// and is not modelled here.)
func (c *Config) ExecutedFLOPs(types []int, env *descriptor.EnvOut) (float64, error) {
	jobs, err := chunkJobs(nil, make([][]int, c.NumTypes()), types, env.Nloc, c.ChunkSize)
	if err != nil {
		return 0, err
	}
	fm := c.newFLOPModel()
	sel := make([]int, c.NumTypes())
	var total float64
	for _, j := range jobs {
		chunkSel(sel, env, j.atoms)
		total += float64(len(j.atoms)) * fm.pipeline(sel)
	}
	entries := 0
	for _, idx := range env.Fmt.Idx {
		if idx >= 0 {
			entries++
		}
	}
	const perEntry = descriptor.RefreshFLOPsPerEntry + descriptor.ProdForceFLOPsPerEntry + descriptor.ProdVirialFLOPsPerEntry
	total += float64(env.Nloc)*float64(env.Stride)*descriptor.EnvFLOPsPerSlot + float64(entries)*perEntry
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
