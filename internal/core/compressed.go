package core

import (
	"fmt"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// This file wires the tabulated embedding net (internal/compress) into
// the evaluator as its third execution strategy, after the exact fused
// operator and the per-atom reference loops. The fitting net and
// the customized operators are untouched; the embedding stage and the
// descriptor contractions around it become one fused operator per (atom,
// neighbor-type section), run over the section's real neighbors only:
//
//	forward:  T_a += Σ_k g(s_k) ⊗ R~_k / N     one Horner sweep per row,
//	                                            contracted on the spot
//	backward: dR~_k = g(s_k)·dT_a / N, ds_k = <R~_k dT_a^T / N, g'(s_k)>
//	                                            the sweep recomputed
//
// Because the table's derivative is the exact analytic derivative of the
// table's value, forces stay exact gradients of the (tabulated) energy
// surface and NVE conservation is preserved under compression.

// SetCompressedEmbedding switches the evaluator to the tabulated
// embedding path. Tables come from, in order of preference: the model's
// attached tables (a compressed checkpoint round-trips through
// Save/Load), or a fresh build from the master double-precision nets
// using spec (a zero Spec selects the default domain and resolution for
// the model's cutoff). The float32 evaluator derives its tables from the
// float64 build, mirroring how its network weights are derived.
//
// Compression is an inference-time strategy: parameter gradients are not
// representable (the embedding weights no longer appear in the graph), so
// ComputeWithGrads rejects a compressed evaluator. Training always runs
// on the exact nets; AttachCompressedTables re-tabulates afterwards.
func (ev *Evaluator[T]) SetCompressedEmbedding(spec compress.Spec) error {
	nt := ev.cfg.NumTypes()
	src := ev.master.Compressed
	if src == nil {
		var err error
		if src, err = buildTables(ev.master, spec); err != nil {
			return err
		}
	}
	comp := make([][]*compress.Table[T], nt)
	for ci := 0; ci < nt; ci++ {
		comp[ci] = make([]*compress.Table[T], nt)
		for tj := 0; tj < nt; tj++ {
			if m := src[ci][tj].M; m != ev.cfg.M() {
				return fmt.Errorf("core: compressed table (%d,%d) has %d channels, model has %d", ci, tj, m, ev.cfg.M())
			}
			comp[ci][tj] = convertTable[T](src[ci][tj])
		}
	}
	ev.comp = comp
	ev.strat = StrategyCompressed
	return nil
}

// AttachCompressedTables tabulates every embedding net of the model and
// stores the tables on the model, so Save writes them into the checkpoint
// and a loaded model evaluates compressed without re-fitting (the
// successor papers ship the compressed model the same way). A zero Spec
// selects the default domain and resolution for the model's cutoff.
func (m *Model) AttachCompressedTables(spec compress.Spec) error {
	tabs, err := buildTables(m, spec)
	if err != nil {
		return err
	}
	m.Compressed = tabs
	return nil
}

// buildTables fits one table per (center, neighbor) type pair from the
// master double-precision nets.
func buildTables(m *Model, spec compress.Spec) ([][]*compress.Table[float64], error) {
	spec, err := spec.WithDefaults(m.Cfg.Rcut)
	if err != nil {
		return nil, err
	}
	nt := m.Cfg.NumTypes()
	tabs := make([][]*compress.Table[float64], nt)
	for ci := 0; ci < nt; ci++ {
		tabs[ci] = make([]*compress.Table[float64], nt)
		for tj := 0; tj < nt; tj++ {
			tb, err := compress.Build(m.Embed[ci][tj], spec)
			if err != nil {
				return nil, fmt.Errorf("core: compressing embedding net (%d,%d): %w", ci, tj, err)
			}
			tabs[ci][tj] = tb
		}
	}
	return tabs, nil
}

// convertTable shares the float64 table when T is float64 and converts to
// float32 otherwise (the table analogue of shareOrConvert).
func convertTable[T tensor.Float](tb *compress.Table[float64]) *compress.Table[T] {
	if same, ok := any(tb).(*compress.Table[T]); ok {
		return same
	}
	return compress.Convert[T](tb)
}

// evalChunkCompressed is the compressed strategy's chunk body: the fused
// table-lookup/contraction operator of internal/compress runs per (atom,
// section) over the section's real neighbors, straight from the frame's
// environment rows into the descriptor items and straight back into ndT.
// No embedding matrix, no gathered copy of R~ and no padding row exists at
// any point; the arena holds the chunk's descriptors, the fitting-net
// traces and one tile of scratch.
//
//	T_a  = sum_tj sum_{k<n} g(s_k) (x) R~_k / N   ContractForward, section
//	                                              then slot order
//	D_a, E, dT_a                                  fitChunk
//	ndT_k = (G dT/N, + ds_k on column 0)          ContractBackward
//
// The operator works on 4 x m channel-minor items, one per atom of the
// chunk, and fitChunk turns them into their gradient in place.
func (ev *Evaluator[T]) evalChunkCompressed(ctr *perf.Counter, opts tensor.Opts, ws *evalScratch[T], ar *tensor.Arena[T], env *descriptor.EnvOut, rT, ndT []T, ci int, atoms []int, atomEnergy []float64) float64 {
	defer ar.Reset()
	cfg := &ev.cfg
	stride := cfg.Stride()
	m := cfg.M()
	nt := cfg.NumTypes()
	selOff := env.Fmt.SelOff
	tabs := ev.comp[ci]

	items := ar.Take(len(atoms) * 4 * m)
	buf := ar.TakeUninit(compress.FusedScratchLen(m))

	start := ctr.Now()
	var rows int64
	for a, atom := range atoms {
		item := items[a*4*m : (a+1)*4*m]
		for tj := 0; tj < nt; tj++ {
			n := int(env.Count[atom*nt+tj])
			tabs[tj].ContractForward(rT[(atom*stride+selOff[tj])*4:], n, item, buf)
			rows += int64(n)
		}
	}
	ctr.Observe(perf.CatCUSTOM, start, rows*int64(m)*compress.FusedForwardFLOPsPerChannel)

	chunkE := ev.fitChunk(ctr, opts, ws, ar, ci, atoms, items, atomEnergy)

	start = ctr.Now()
	for a, atom := range atoms {
		item := items[a*4*m : (a+1)*4*m]
		for tj := 0; tj < nt; tj++ {
			base := (atom*stride + selOff[tj]) * 4
			tabs[tj].ContractBackward(rT[base:], int(env.Count[atom*nt+tj]), item, ndT[base:], buf)
		}
	}
	ctr.Observe(perf.CatCUSTOM, start, rows*int64(m)*compress.FusedBackwardFLOPsPerChannel)
	return chunkE
}
