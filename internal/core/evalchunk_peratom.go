package core

import (
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// evalChunkPerAtom is the retained per-atom descriptor pipeline: four
// loops of tiny per-atom GEMMs (m x 4 contractions, sel x m backward
// outputs), one call per atom — most below every SIMD tile width, on the
// naive reference loops. This is the computational granularity
// the 2018 DeePMD-kit ran at — the exact contrast Sec. 5.3.1 and Fig. 3
// draw against merging the matrices of many atoms into batched GEMMs —
// and it survives as the differential oracle for the batched path
// (TestBatchedEvaluatorMatchesPerAtom) and as `dpmd -strategy peratom`,
// the side to A/B against under `go run ./bench`. An evaluator built for
// StrategyPerAtom runs it. Unlike the batched path it allocates its
// small bookkeeping slices per chunk, as the per-call-allocation baseline
// did, and it works on full-sel matrices: each (atom, section) is gathered
// from its ragged rows (env.Off) into Sel[t] rows, zero beyond the real
// ones, and only the real rows of the network derivative are written back.
func (ev *Evaluator[T]) evalChunkPerAtom(ctr *perf.Counter, ar *tensor.Arena[T], env *descriptor.EnvOut, rT, ndT []T, ci int, atoms []int, atomEnergy []float64) float64 {
	defer ar.Reset()
	cfg := &ev.cfg
	m := cfg.M()
	ax := cfg.MAxis
	dim := cfg.DescriptorDim()
	nA := len(atoms)
	invN := T(1.0 / float64(cfg.Stride()))
	nt := cfg.NumTypes()

	// Every (atom, section) as a full-sel matrix: its rows of rT, then zero
	// rows up to Sel[t]. rows reports where the real rows sit.
	rows := func(atom, tj int) (lo, hi int) { return env.Off[atom*nt+tj], env.Off[atom*nt+tj+1] }
	full := make([]tensor.Matrix[T], nA*nt)
	for a, atom := range atoms {
		for tj := 0; tj < nt; tj++ {
			lo, hi := rows(atom, tj)
			full[a*nt+tj] = ar.TakeMatrix(cfg.Sel[tj], 4)
			copy(full[a*nt+tj].Data, rT[4*lo:4*hi])
		}
	}

	// Embedding forward per neighbor-type section.
	traces := make([]*nn.Trace[T], nt)
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		sIn := ar.TakeMatrix(nA*sel, 1)
		for a := range atoms {
			for k := 0; k < sel; k++ {
				sIn.Data[a*sel+k] = full[a*nt+tj].Data[k*4]
			}
		}
		traces[tj] = ev.embed[ci][tj].Forward(ctr, tensor.Opts{}, ar, sIn, true)
	}

	// Per-atom descriptor contraction T_i = G^T R~ / N and
	// D_i = T_i (T_i[:ax])^T.
	dChunk := ar.TakeMatrix(nA, dim)
	tis := make([]tensor.Matrix[T], nA)
	for a := range atoms {
		ti := ar.TakeMatrix(m, 4)
		for tj := 0; tj < nt; tj++ {
			sel := cfg.Sel[tj]
			g := traces[tj].Out()
			gA := tensor.MatrixFrom(sel, m, g.Data[a*sel*m:(a+1)*sel*m])
			tensor.GemmTNOpt(tensor.Opts{}, ctr, invN, gA, full[a*nt+tj], 1, ti)
		}
		tis[a] = ti
		tsub := tensor.MatrixFrom(ax, 4, ti.Data[:ax*4])
		di := tensor.MatrixFrom(m, ax, dChunk.Data[a*dim:(a+1)*dim])
		tensor.GemmNTOpt(tensor.Opts{}, ctr, 1, ti, tsub, 0, di)
	}

	// Fitting net forward/backward over the chunk batch.
	fitTr := ev.fit[ci].Forward(ctr, tensor.Opts{}, ar, dChunk, true)
	eOut := fitTr.Out()
	var chunkE float64
	for a, atom := range atoms {
		e := float64(eOut.Data[a])
		atomEnergy[atom] = e
		chunkE += e
	}
	ones := ar.TakeMatrix(nA, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	_, fitGr := ev.gradsFor(ci, 0)
	dD := ev.fit[ci].Backward(ctr, tensor.Opts{}, ar, fitTr, ones, fitGr)

	// Per-atom backward through the descriptor contraction, into full-sel
	// network-derivative matrices.
	dGsec := make([]tensor.Matrix[T], nt)
	for tj := 0; tj < nt; tj++ {
		dGsec[tj] = ar.TakeMatrix(nA*cfg.Sel[tj], m)
	}
	nds := make([]tensor.Matrix[T], nA*nt)
	for a := range atoms {
		ti := tis[a]
		tsub := tensor.MatrixFrom(ax, 4, ti.Data[:ax*4])
		dDa := tensor.MatrixFrom(m, ax, dD.Data[a*dim:(a+1)*dim])
		dT := ar.TakeMatrix(m, 4)
		tensor.GemmOpt(tensor.Opts{}, ctr, 1, dDa, tsub, 0, dT)
		dTsub := ar.TakeMatrix(ax, 4)
		tensor.GemmTNOpt(tensor.Opts{}, ctr, 1, dDa, ti, 0, dTsub)
		for i := range dTsub.Data {
			dT.Data[i] += dTsub.Data[i]
		}
		for tj := 0; tj < nt; tj++ {
			sel := cfg.Sel[tj]
			g := traces[tj].Out()
			gA := tensor.MatrixFrom(sel, m, g.Data[a*sel*m:(a+1)*sel*m])
			dgA := tensor.MatrixFrom(sel, m, dGsec[tj].Data[a*sel*m:(a+1)*sel*m])
			tensor.GemmNTOpt(tensor.Opts{}, ctr, invN, full[a*nt+tj], dT, 0, dgA)
			nds[a*nt+tj] = ar.TakeMatrix(sel, 4)
			tensor.GemmOpt(tensor.Opts{}, ctr, invN, gA, dT, 0, nds[a*nt+tj])
		}
	}

	// Embedding backward: ds feeds the s-column of the network gradient.
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		embGr, _ := ev.gradsFor(ci, tj)
		ds := ev.embed[ci][tj].Backward(ctr, tensor.Opts{}, ar, traces[tj], dGsec[tj], embGr)
		for a := range atoms {
			for k := 0; k < sel; k++ {
				nds[a*nt+tj].Data[k*4] += ds.Data[a*sel+k]
			}
		}
	}

	// The real rows go back to ndT.
	for a, atom := range atoms {
		for tj := 0; tj < nt; tj++ {
			lo, hi := rows(atom, tj)
			copy(ndT[4*lo:4*hi], nds[a*nt+tj].Data)
		}
	}
	return chunkE
}
