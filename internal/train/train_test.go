package train

import (
	"fmt"
	"math"
	"testing"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/refpot"
)

// tinyModelAndData builds a small LJ-labeled dataset and a tiny model.
func tinyModelAndData(t *testing.T, nframes int) (*core.Model, []Frame) {
	t.Helper()
	cfg := core.TinyConfig(1)
	cfg.Rcut = 3.0
	cfg.RcutSmth = 1.0
	cfg.Skin = 0.5
	base := lattice.FCC(2, 2, 2, 4.2)
	oracle := refpot.NewLennardJones(0.05, 2.6, 3.0)
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	frames, err := GenData(oracle, base, spec, nframes, 0.01, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	bias := FitEnergyBias(frames, 1)
	cfg.AtomEnerBias = bias
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model, frames
}

// The parameter gradient from ComputeWithGrads must match finite
// differences through the whole model.
func TestEnergyParameterGradient(t *testing.T) {
	model, frames := tinyModelAndData(t, 2)
	ev := core.NewEvaluator[float64](model)
	f := &frames[0]
	spec := neighbor.Spec{Rcut: model.Cfg.Rcut, Skin: model.Cfg.Skin, Sel: model.Cfg.Sel}
	list, err := f.List(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	grads := core.NewModelGrads(model)
	var res core.Result
	if err := ev.ComputeWithGrads(f.Pos, f.Types, len(f.Types), list, &f.Box, &res, grads); err != nil {
		t.Fatal(err)
	}
	energy := func() float64 {
		var r core.Result
		if err := ev.Compute(f.Pos, f.Types, len(f.Types), list, &f.Box, &r); err != nil {
			t.Fatal(err)
		}
		return r.Energy
	}
	const h = 1e-6
	check := func(name string, w []float64, g []float64, idx int) {
		t.Helper()
		orig := w[idx]
		w[idx] = orig + h
		ep := energy()
		w[idx] = orig - h
		em := energy()
		w[idx] = orig
		want := (ep - em) / (2 * h)
		if math.Abs(g[idx]-want) > 2e-5*(1+math.Abs(want)) {
			t.Fatalf("%s[%d]: analytic %g, finite diff %g", name, idx, g[idx], want)
		}
	}
	// Sample weights from the embedding net (both layers) and fitting net.
	emb := model.Embed[0][0]
	eg := grads.Embed[0][0]
	check("embed.L0.W", emb.Layers[0].W.Data, eg.DW[0].Data, 0)
	check("embed.L2.W", emb.Layers[2].W.Data, eg.DW[2].Data, 5)
	check("embed.L1.B", emb.Layers[1].B, eg.DB[1], 2)
	fit := model.Fit[0]
	fg := grads.Fit[0]
	check("fit.L0.W", fit.Layers[0].W.Data, fg.DW[0].Data, 7)
	last := len(fit.Layers) - 1
	check("fit.head.B", fit.Layers[last].B, fg.DB[last], 0)
}

// Training must reduce both the loss and the validation energy RMSE.
func TestTrainingReducesLoss(t *testing.T) {
	model, frames := tinyModelAndData(t, 12)
	rmse0, err := EnergyRMSE(model, frames)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(model, Config{LR: 3e-3, BatchSize: 4, DecaySteps: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for i := 0; i < 120; i++ {
		loss, err := tr.Step(frames)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
	rmse1, err := EnergyRMSE(model, frames)
	if err != nil {
		t.Fatal(err)
	}
	if rmse1 >= rmse0 {
		t.Fatalf("energy RMSE did not improve: %g -> %g", rmse0, rmse1)
	}
}

// The shared-weights contract: the trainer's evaluator must see updated
// weights without rebuilding (shareOrConvert aliasing).
func TestTrainerSharesWeights(t *testing.T) {
	model, frames := tinyModelAndData(t, 4)
	tr, err := NewTrainer(model, Config{LR: 1e-2, BatchSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := model.Fit[0].Layers[0].W.Data[0]
	if _, err := tr.Step(frames); err != nil {
		t.Fatal(err)
	}
	after := model.Fit[0].Layers[0].W.Data[0]
	if before == after {
		t.Fatal("Adam update did not reach the master weights")
	}
	// And RMSE computed from the same model object must reflect updates.
	if _, err := EnergyRMSE(model, frames); err != nil {
		t.Fatal(err)
	}
}

func TestFitEnergyBias(t *testing.T) {
	// Two frames with known per-type energies: E = 2*nA + 3*nB.
	frames := []Frame{
		{Types: []int{0, 0, 1}, Energy: 2*2 + 3*1},
		{Types: []int{0, 1, 1}, Energy: 2*1 + 3*2},
		{Types: []int{0, 0, 0}, Energy: 2 * 3},
	}
	bias := FitEnergyBias(frames, 2)
	if math.Abs(bias[0]-2) > 1e-9 || math.Abs(bias[1]-3) > 1e-9 {
		t.Fatalf("bias = %v, want [2 3]", bias)
	}
}

func TestLRDecay(t *testing.T) {
	model, _ := tinyModelAndData(t, 2)
	tr, err := NewTrainer(model, Config{LR: 1e-3, DecayRate: 0.5, DecaySteps: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.LR(); got != 1e-3 {
		t.Fatalf("initial LR %g", got)
	}
	tr.step = 10
	if got := tr.LR(); math.Abs(got-5e-4) > 1e-12 {
		t.Fatalf("decayed LR %g, want 5e-4", got)
	}
}

// Warm start: StartStep must resume the learning-rate schedule instead of
// restarting it at the full initial LR.
func TestWarmStartResumesLRSchedule(t *testing.T) {
	model, _ := tinyModelAndData(t, 2)
	tr, err := NewTrainer(model, Config{LR: 1e-3, DecayRate: 0.5, DecaySteps: 10, Seed: 1, StartStep: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CurrentStep(); got != 20 {
		t.Fatalf("CurrentStep = %d, want 20", got)
	}
	if got := tr.LR(); math.Abs(got-2.5e-4) > 1e-12 {
		t.Fatalf("warm-started LR %g, want 2.5e-4 (two decay periods)", got)
	}
}

// Warm-starting on a SUPERSET dataset must not worsen the training-set
// RMSE: the regression the active-learning loop depends on when it grows
// the dataset and retrains from the previous round's weights. (The first
// training stage leaves the model well off convergence, so the resumed-LR
// retrain has clear downhill to go; seeded, deterministic.)
func TestWarmStartSupersetNeverWorsensRMSE(t *testing.T) {
	model, frames := tinyModelAndData(t, 16)
	subset := frames[:8]
	tr, err := NewTrainer(model, Config{LR: 3e-3, BatchSize: 4, DecayRate: 0.97, DecaySteps: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if _, err := tr.Step(subset); err != nil {
			t.Fatal(err)
		}
	}
	before, err := EnergyRMSE(model, frames) // superset RMSE before retrain
	if err != nil {
		t.Fatal(err)
	}
	// Continue from the trained weights on the grown dataset, resuming the
	// decayed LR at the cumulative step count.
	tr2, err := NewTrainer(model, Config{LR: 3e-3, BatchSize: 4, DecayRate: 0.97, DecaySteps: 20,
		Seed: 6, StartStep: tr.CurrentStep()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 240; i++ {
		if _, err := tr2.Step(frames); err != nil {
			t.Fatal(err)
		}
	}
	after, err := EnergyRMSE(model, frames)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("superset retrain worsened training-set RMSE: %g -> %g", before, after)
	}
}

func TestForceRMSEFinite(t *testing.T) {
	model, frames := tinyModelAndData(t, 3)
	rmse, err := ForceRMSE(model, frames)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rmse) || rmse <= 0 {
		t.Fatalf("force RMSE = %g", rmse)
	}
}

// The trainer has one worker budget and every value of it executes the
// same arithmetic: ComputeWithGrads sweeps chunks serially (the gradient
// accumulators are shared) and spends the budget on GEMM row blocks, which
// write every output element from exactly one goroutine. Loss trajectory
// and final weights must be bit-identical at any Workers, on a model that
// is itself configured parallel and split into several chunks per frame.
func TestTrainerWorkersBitIdentical(t *testing.T) {
	base, frames := tinyModelAndData(t, 6)
	run := func(workers int) (losses []float64, weights []float64) {
		cfg := base.Cfg
		cfg.Workers = workers
		cfg.ChunkSize = 8 // 32 atoms: four chunks per frame
		model, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(model, Config{LR: 3e-3, BatchSize: 3, Seed: 5})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if tr.Cfg.Workers != workers {
			t.Fatalf("trainer budget %d, want the model's %d", tr.Cfg.Workers, workers)
		}
		for i := 0; i < 12; i++ {
			loss, err := tr.Step(frames)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		nets := append([]*nn.Net[float64]{}, model.Fit...)
		for _, row := range model.Embed {
			nets = append(nets, row...)
		}
		for _, n := range nets {
			for _, l := range n.Layers {
				weights = append(append(weights, l.W.Data...), l.B...)
			}
		}
		return losses, weights
	}
	wantLoss, wantW := run(1)
	for _, workers := range []int{2, 7} {
		loss, w := run(workers)
		for i := range wantLoss {
			if math.Float64bits(loss[i]) != math.Float64bits(wantLoss[i]) {
				t.Fatalf("Workers=%d: loss[%d] = %.17g, serial %.17g", workers, i, loss[i], wantLoss[i])
			}
		}
		for i := range wantW {
			if math.Float64bits(w[i]) != math.Float64bits(wantW[i]) {
				t.Fatalf("Workers=%d: weight %d = %.17g, serial %.17g", workers, i, w[i], wantW[i])
			}
		}
	}
}

func TestSolveSym(t *testing.T) {
	// 2x2 system: [[2,1],[1,3]] x = [5, 10] -> x = [1, 3].
	x := solveSym([]float64{2, 1, 1, 3}, []float64{5, 10}, 2)
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solveSym = %v", x)
	}
	// Singular system must not blow up.
	y := solveSym([]float64{1, 1, 1, 1}, []float64{2, 2}, 2)
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("singular solve produced %v", y)
		}
	}
}

// BenchmarkAdamStep times one trainer step — four frames through
// ComputeWithGrads, their gradients summed, one Adam update — on dptrain's
// copper system (256 atoms, sel 80, Sutton–Chen labels), at the tiny and
// the paper's network geometry, Workers 1 and 2. Every weight gradient
// dW = XᵀdY of the step is a GemmTN, so this is the workload the TN route
// of internal/tensor serves.
func BenchmarkAdamStep(b *testing.B) {
	for _, net := range []string{"tiny", "paper"} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("net=%s/workers=%d", net, workers), func(b *testing.B) {
				cfg := core.TinyConfig(1)
				cfg.Rcut, cfg.RcutSmth, cfg.Skin, cfg.Sel = 5.0, 2.0, 1.0, []int{80}
				if net == "paper" {
					cfg.EmbedWidths, cfg.FitWidths, cfg.MAxis = []int{25, 50, 100}, []int{240, 240, 240}, 16
				}
				oracle := refpot.NewSuttonChenCu()
				oracle.Rcut = 5.0
				spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
				frames, err := GenData(oracle, lattice.FCC(4, 4, 4, lattice.CuLatticeConst), spec, 8, 0.01, 0.15, 11)
				if err != nil {
					b.Fatal(err)
				}
				cfg.AtomEnerBias = FitEnergyBias(frames, 1)
				model, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := NewTrainer(model, Config{BatchSize: 4, Seed: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tr.Step(frames); err != nil { // warm-up: arenas and slab pools
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tr.Step(frames); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
