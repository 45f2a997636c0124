package core

import (
	"fmt"

	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
)

// BaselineEvaluator executes the same Deep Potential mathematics the way
// the 2018 serial DeePMD-kit did (Sec. 4, "Baseline"): double precision
// only, the unfused standard-operator network graph (separate MATMUL, SUM,
// CONCAT, TANH, TANHGrad), the comparison-sorted AoS neighbor path inside
// the Environment operator, atom-at-a-time batches (computational
// granularity of one), per-call allocation everywhere, and the slot-major
// baseline ProdForce / ProdVirial operators. Its outputs are numerically
// identical to the optimized evaluator's; only the execution strategy
// differs, which is exactly the contrast Table 3 and Sec. 7.1 measure.
type BaselineEvaluator struct {
	cfg   Config
	dcfg  descriptor.Config
	model *Model

	// Counter receives FLOPs and per-category operator times; nil allowed.
	Counter *perf.Counter
}

// NewBaselineEvaluator wraps the model with the baseline execution
// strategy. The model's master weights are used directly (no copy).
func NewBaselineEvaluator(m *Model) *BaselineEvaluator {
	return &BaselineEvaluator{
		cfg: m.Cfg,
		dcfg: descriptor.Config{
			Rcut:     m.Cfg.Rcut,
			RcutSmth: m.Cfg.RcutSmth,
			Sel:      m.Cfg.Sel,
		},
		model: m,
	}
}

// ComputeBatch evaluates the frames one after another: the baseline
// strategy predates batching, and a per-frame loop is the same thing by
// definition.
func (bv *BaselineEvaluator) ComputeBatch(frames []Frame) error {
	for i := range frames {
		f := &frames[i]
		if f.Out == nil {
			return fmt.Errorf("core: batch frame %d has no Result", i)
		}
		if err := bv.Compute(f.Pos, f.Types, f.Nloc, f.List, f.Box, f.Out); err != nil {
			return err
		}
	}
	return nil
}

// Compute evaluates energy, force and virial with the baseline strategy.
func (bv *BaselineEvaluator) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error {
	ctr := bv.Counter
	nall := len(pos) / 3
	env, err := descriptor.EnvironmentBaseline(ctr, bv.dcfg, pos, types, list, box)
	if err != nil {
		return err
	}
	cfg := &bv.cfg
	// The baseline strategy predates the optimized kernels: every GEMM it
	// calls itself runs the naive reference family. The nets' standard
	// MATMUL operator (nn.ForwardBaseline) is the framework's GEMM and runs
	// on the active family.
	naive := tensor.Opts{Kernel: tensor.Naive}
	stride := cfg.Stride()
	m := cfg.M()
	ax := cfg.MAxis
	dim := cfg.DescriptorDim()
	nt := cfg.NumTypes()
	invN := 1.0 / float64(stride)

	netDeriv := make([]float64, len(env.R))
	out.AtomEnergy = tensor.Resize(out.AtomEnergy, nloc)
	out.Energy = 0

	// Atom-at-a-time: batch size one through every network.
	scratch := tensor.NewArena[float64](1 << 12) // deliberately small: overflows to heap
	for i := 0; i < nloc; i++ {
		ci := types[i]
		if ci < 0 || ci >= nt {
			return fmt.Errorf("core: atom %d has type %d outside model", i, ci)
		}
		ti := tensor.NewMatrix[float64](m, 4)
		type secTrace struct {
			tr *nn.Trace[float64]
			g  tensor.Matrix[float64]
			r  tensor.Matrix[float64]
		}
		secs := make([]secTrace, nt)
		for tj := 0; tj < nt; tj++ {
			// The section padded to sel rows, zero beyond its real ones:
			// the fixed-shape matrix the 2018 graph fed its nets.
			sel := cfg.Sel[tj]
			lo, hi := env.Off[i*nt+tj], env.Off[i*nt+tj+1]
			r := tensor.NewMatrix[float64](sel, 4)
			copy(r.Data, env.R[4*lo:4*hi])
			sIn := tensor.NewMatrix[float64](sel, 1)
			for k := 0; k < sel; k++ {
				sIn.Data[k] = r.Data[k*4]
			}
			tr := bv.model.Embed[ci][tj].ForwardBaseline(ctr, sIn, true)
			g := tr.Out()
			tensor.GemmTNOpt(naive, ctr, invN, g, r, 1, ti)
			secs[tj] = secTrace{tr: tr, g: g, r: r}
		}
		tsub := tensor.MatrixFrom(ax, 4, ti.Data[:ax*4])
		di := tensor.NewMatrix[float64](m, ax)
		tensor.GemmNTOpt(naive, ctr, 1, ti, tsub, 0, di)

		dRow := tensor.MatrixFrom(1, dim, di.Data)
		fitTr := bv.model.Fit[ci].ForwardBaseline(ctr, dRow, true)
		e := fitTr.Out().Data[0]
		out.AtomEnergy[i] = e
		out.Energy += e

		one := tensor.MatrixFrom(1, 1, []float64{1})
		scratch.Reset()
		dD := bv.model.Fit[ci].Backward(ctr, naive, scratch, fitTr, one, nil)

		dDa := tensor.MatrixFrom(m, ax, dD.Data)
		dT := tensor.NewMatrix[float64](m, 4)
		tensor.GemmOpt(naive, ctr, 1, dDa, tsub, 0, dT)
		dTsub := tensor.NewMatrix[float64](ax, 4)
		tensor.GemmTNOpt(naive, ctr, 1, dDa, ti, 0, dTsub)
		for x := range dTsub.Data {
			dT.Data[x] += dTsub.Data[x]
		}
		for tj := 0; tj < nt; tj++ {
			sel := cfg.Sel[tj]
			dg := tensor.NewMatrix[float64](sel, m)
			tensor.GemmNTOpt(naive, ctr, invN, secs[tj].r, dT, 0, dg)
			nd := tensor.NewMatrix[float64](sel, 4)
			tensor.GemmOpt(naive, ctr, invN, secs[tj].g, dT, 1, nd)
			ds := bv.model.Embed[ci][tj].Backward(ctr, naive, scratch, secs[tj].tr, dg, nil)
			for k := 0; k < sel; k++ {
				nd.Data[k*4] += ds.Data[k]
			}
			lo, hi := env.Off[i*nt+tj], env.Off[i*nt+tj+1]
			copy(netDeriv[4*lo:4*hi], nd.Data)
		}
	}

	out.Force = tensor.Resize(out.Force, 3*nall)
	f := descriptor.ProdForceBaseline(ctr, netDeriv, env, nall)
	copy(out.Force, f)
	out.Virial = descriptor.ProdVirialBaseline(ctr, netDeriv, env)
	repulsionEnergy(ctr, bv.cfg.RepA, bv.cfg.RepRcut, pos, nloc, list, box, out)
	return nil
}
