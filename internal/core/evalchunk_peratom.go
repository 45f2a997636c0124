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
// the side to A/B against under `go run ./bench`. Enable with
// SetPerAtomDescriptors(true). Unlike the batched path it allocates its
// small bookkeeping slices per chunk, as the per-call-allocation baseline
// did.
func (ev *Evaluator[T]) evalChunkPerAtom(ctr *perf.Counter, opts tensor.Opts, ar *tensor.Arena[T], env *descriptor.EnvOut, rT, ndT []T, ci int, atoms []int, atomEnergy []float64) float64 {
	defer ar.Reset()
	cfg := &ev.cfg
	stride := cfg.Stride()
	m := cfg.M()
	ax := cfg.MAxis
	dim := cfg.DescriptorDim()
	nA := len(atoms)
	fmtd := env.Fmt
	invN := T(1.0 / float64(stride))

	// Embedding forward per neighbor-type section.
	nt := cfg.NumTypes()
	traces := make([]*nn.Trace[T], nt)
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		off := fmtd.SelOff[tj]
		sIn := ar.TakeMatrix(nA*sel, 1)
		for a, atom := range atoms {
			base := (atom*stride + off) * 4
			for k := 0; k < sel; k++ {
				sIn.Data[a*sel+k] = rT[base+k*4]
			}
		}
		traces[tj] = ev.embed[ci][tj].Forward(ctr, opts, ar, sIn, true)
	}

	// Per-atom descriptor contraction T_i = G^T R~ / N and
	// D_i = T_i (T_i[:ax])^T.
	dChunk := ar.TakeMatrix(nA, dim)
	tis := make([]tensor.Matrix[T], nA)
	for a, atom := range atoms {
		ti := ar.TakeMatrix(m, 4)
		for tj := 0; tj < nt; tj++ {
			sel := cfg.Sel[tj]
			off := fmtd.SelOff[tj]
			g := traces[tj].Out()
			gA := tensor.MatrixFrom(sel, m, g.Data[a*sel*m:(a+1)*sel*m])
			rA := tensor.MatrixFrom(sel, 4, rT[(atom*stride+off)*4:(atom*stride+off+sel)*4])
			tensor.GemmTNOpt(tensor.Opts{}, ctr, invN, gA, rA, 1, ti)
		}
		tis[a] = ti
		tsub := tensor.MatrixFrom(ax, 4, ti.Data[:ax*4])
		di := tensor.MatrixFrom(m, ax, dChunk.Data[a*dim:(a+1)*dim])
		tensor.GemmNTOpt(tensor.Opts{}, ctr, 1, ti, tsub, 0, di)
	}

	// Fitting net forward/backward over the chunk batch.
	fitTr := ev.fit[ci].Forward(ctr, opts, ar, dChunk, true)
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
	dD := ev.fit[ci].Backward(ctr, opts, ar, fitTr, ones, fitGr)

	// Per-atom backward through the descriptor contraction.
	dGsec := make([]tensor.Matrix[T], nt)
	for tj := 0; tj < nt; tj++ {
		dGsec[tj] = ar.TakeMatrix(nA*cfg.Sel[tj], m)
	}
	for a, atom := range atoms {
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
			off := fmtd.SelOff[tj]
			g := traces[tj].Out()
			gA := tensor.MatrixFrom(sel, m, g.Data[a*sel*m:(a+1)*sel*m])
			rA := tensor.MatrixFrom(sel, 4, rT[(atom*stride+off)*4:(atom*stride+off+sel)*4])
			dgA := tensor.MatrixFrom(sel, m, dGsec[tj].Data[a*sel*m:(a+1)*sel*m])
			tensor.GemmNTOpt(tensor.Opts{}, ctr, invN, rA, dT, 0, dgA)
			ndA := tensor.MatrixFrom(sel, 4, ndT[(atom*stride+off)*4:(atom*stride+off+sel)*4])
			tensor.GemmOpt(tensor.Opts{}, ctr, invN, gA, dT, 0, ndA)
		}
	}

	// Embedding backward: ds feeds the s-column of the network gradient.
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		off := fmtd.SelOff[tj]
		embGr, _ := ev.gradsFor(ci, tj)
		ds := ev.embed[ci][tj].Backward(ctr, opts, ar, traces[tj], dGsec[tj], embGr)
		for a, atom := range atoms {
			base := (atom*stride + off) * 4
			for k := 0; k < sel; k++ {
				ndT[base+k*4] += ds.Data[a*sel+k]
			}
		}
	}
	return chunkE
}
