// Package train implements the Deep Potential training pipeline: dataset
// generation from an analytic "ab initio" oracle (the DFT substitution of
// this reproduction), an Adam optimizer with exponential learning-rate
// decay (the DeePMD-kit schedule), and a trainer minimizing the per-atom
// energy loss.
//
// Substitution note: DeePMD-kit's loss combines energy and force terms,
// with force-loss gradients provided by TensorFlow's second-order
// automatic differentiation. This trainer optimizes the energy term with
// exact analytic gradients (core.Evaluator.ComputeWithGrads) and uses the
// force labels for validation (ForceRMSE); implementing the force-loss
// gradient would require hand-written second-order backpropagation through
// the whole pipeline. The learned surface still yields physical forces
// because E is fit over densely perturbed configurations.
package train

import (
	"errors"
	"math"
	"math/rand"
	"sync"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
)

// Frame is one labeled configuration.
type Frame struct {
	Pos    []float64
	Types  []int
	Box    neighbor.Box
	Energy float64
	Force  []float64

	list *neighbor.List // cached neighbor list
}

// List returns (building if needed) the frame's neighbor list for spec,
// using workers goroutines for the build.
func (f *Frame) List(spec neighbor.Spec, workers int) (*neighbor.List, error) {
	if f.list == nil {
		l, err := neighbor.Build(spec, f.Pos, f.Types, len(f.Types), &f.Box, workers)
		if err != nil {
			return nil, err
		}
		f.list = l
	}
	return f.list, nil
}

// GenData samples nframes configurations by perturbing the base system
// with amplitudes drawn from [ampLo, ampHi] and labels them with the
// oracle potential. This mirrors DP-GEN's exploration around reference
// structures (Sec. 6.1 cites [68, 69] for the copper dataset).
func GenData(oracle md.Potential, base *lattice.System, spec neighbor.Spec, nframes int, ampLo, ampHi float64, seed int64) ([]Frame, error) {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]Frame, 0, nframes)
	for fi := 0; fi < nframes; fi++ {
		amp := ampLo + (ampHi-ampLo)*rng.Float64()
		pos := make([]float64, len(base.Pos))
		copy(pos, base.Pos)
		for i := range pos {
			pos[i] += amp * (2*rng.Float64() - 1)
		}
		f := Frame{Pos: pos, Types: base.Types, Box: base.Box}
		list, err := f.List(spec, 1)
		if err != nil {
			return nil, err
		}
		var res core.Result
		if err := oracle.Compute(f.Pos, f.Types, len(f.Types), list, &f.Box, &res); err != nil {
			return nil, err
		}
		f.Energy = res.Energy
		f.Force = append([]float64(nil), res.Force[:len(f.Pos)]...)
		frames = append(frames, f)
	}
	return frames, nil
}

// FitEnergyBias solves least squares for per-type atomic energies from the
// frame compositions, used to initialize the fitting-net head bias so the
// network only has to learn the configuration dependence.
func FitEnergyBias(frames []Frame, ntypes int) []float64 {
	// Normal equations A^T A x = A^T b with A[f][t] = count of type t.
	ata := make([]float64, ntypes*ntypes)
	atb := make([]float64, ntypes)
	for _, f := range frames {
		counts := make([]float64, ntypes)
		for _, t := range f.Types {
			counts[t]++
		}
		for a := 0; a < ntypes; a++ {
			for b := 0; b < ntypes; b++ {
				ata[a*ntypes+b] += counts[a] * counts[b]
			}
			atb[a] += counts[a] * f.Energy
		}
	}
	return solveSym(ata, atb, ntypes)
}

// solveSym solves a small symmetric system by Gaussian elimination with
// partial pivoting; singular directions get zero.
func solveSym(a []float64, b []float64, n int) []float64 {
	m := make([]float64, n*(n+1))
	for i := 0; i < n; i++ {
		copy(m[i*(n+1):i*(n+1)+n], a[i*n:(i+1)*n])
		m[i*(n+1)+n] = b[i]
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r*(n+1)+col]) > math.Abs(m[p*(n+1)+col]) {
				p = r
			}
		}
		if math.Abs(m[p*(n+1)+col]) < 1e-12 {
			continue
		}
		if p != col {
			for k := 0; k <= n; k++ {
				m[p*(n+1)+k], m[col*(n+1)+k] = m[col*(n+1)+k], m[p*(n+1)+k]
			}
		}
		pv := m[col*(n+1)+col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r*(n+1)+col] / pv
			for k := col; k <= n; k++ {
				m[r*(n+1)+k] -= f * m[col*(n+1)+k]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		if pv := m[i*(n+1)+i]; math.Abs(pv) > 1e-12 {
			x[i] = m[i*(n+1)+n] / pv
		}
	}
	return x
}

// EnergyRMSE returns the per-atom energy RMSE of the model over frames.
func EnergyRMSE(model *core.Model, frames []Frame) (float64, error) {
	spec := neighbor.Spec{Rcut: model.Cfg.Rcut, Skin: model.Cfg.Skin, Sel: model.Cfg.Sel}
	return EnergyRMSEWith(core.NewEvaluator[float64](model), spec, model.Cfg.Workers, frames)
}

// EnergyRMSEWith returns the per-atom energy RMSE of any potential — a
// core.Engine running whatever plan it was opened with, an evaluator, a
// reference potential — over frames, so validation can run the exact
// execution strategy that will serve the model (e.g. its compressed
// tables) rather than always re-deriving a double batched evaluator.
func EnergyRMSEWith(pot md.Potential, spec neighbor.Spec, workers int, frames []Frame) (float64, error) {
	var sum float64
	var res core.Result
	for i := range frames {
		f := &frames[i]
		list, err := f.List(spec, workers)
		if err != nil {
			return 0, err
		}
		if err := pot.Compute(f.Pos, f.Types, len(f.Types), list, &f.Box, &res); err != nil {
			return 0, err
		}
		d := (res.Energy - f.Energy) / float64(len(f.Types))
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(frames))), nil
}

// ForceRMSE returns the force RMSE (eV/A) of the model over frames.
func ForceRMSE(model *core.Model, frames []Frame) (float64, error) {
	spec := neighbor.Spec{Rcut: model.Cfg.Rcut, Skin: model.Cfg.Skin, Sel: model.Cfg.Sel}
	return ForceRMSEWith(core.NewEvaluator[float64](model), spec, model.Cfg.Workers, frames)
}

// ForceRMSEWith returns the force RMSE (eV/A) of any potential over
// frames (see EnergyRMSEWith).
func ForceRMSEWith(pot md.Potential, spec neighbor.Spec, workers int, frames []Frame) (float64, error) {
	var sum float64
	var count int
	var res core.Result
	for i := range frames {
		f := &frames[i]
		list, err := f.List(spec, workers)
		if err != nil {
			return 0, err
		}
		if err := pot.Compute(f.Pos, f.Types, len(f.Types), list, &f.Box, &res); err != nil {
			return 0, err
		}
		for k := range f.Force {
			d := res.Force[k] - f.Force[k]
			sum += d * d
			count++
		}
	}
	return math.Sqrt(sum / float64(count)), nil
}

// Config sets the optimization hyper-parameters.
type Config struct {
	// LR is the initial Adam learning rate (DeePMD-kit default 1e-3).
	LR float64
	// DecayRate and DecaySteps give lr(t) = LR * DecayRate^(t/DecaySteps).
	DecayRate  float64
	DecaySteps int
	// BatchSize frames per step.
	BatchSize int
	// Seed shuffles batches.
	Seed int64
	// StartStep starts the learning-rate schedule at this step instead of
	// zero — the warm-start knob for continuing from a checkpointed model.
	// Retraining a converged model at the full initial LR can undo it; a
	// caller resuming training (the active-learning loop, a restarted
	// dptrain run) passes the cumulative step count so the decayed LR
	// carries over. Optimizer state reset policy: Adam moments always
	// start FRESH — checkpoints carry weights, not optimizer state, so a
	// warm-started trainer rebuilds its first/second moments from the new
	// gradients and Adam's bias correction restarts at t = 0. Only the LR
	// schedule resumes.
	StartStep int
	// Workers is the trainer's one parallelism budget: how many frames of
	// a batch are evaluated at once, each on its own single-worker
	// evaluator, and the goroutine count for neighbor-list builds of
	// uncached frames. Results are bit-identical at any count. Zero
	// defaults to the model's configured Workers; <= 1 runs serial.
	Workers int
}

// Trainer minimizes the per-atom energy loss over a dataset. A Trainer
// may be constructed over a freshly initialized model or over an already
// trained one (warm start): weights are updated in place either way, and
// Config.StartStep controls whether the learning-rate schedule restarts
// or resumes.
type Trainer struct {
	Model *core.Model
	Cfg   Config

	slots []slot // one per frame in flight
	batch []*Frame
	grads *core.ModelGrads
	adam  *adam
	step  int
	rng   *rand.Rand
	spec  neighbor.Spec
}

// slot is one frame in flight: a single-worker evaluator, the frame's
// scratch gradient, its result and its error.
type slot struct {
	ev    *core.Evaluator[float64]
	grads *core.ModelGrads
	res   core.Result
	err   error
}

// NewTrainer prepares a trainer for the model.
func NewTrainer(model *core.Model, cfg Config) (*Trainer, error) {
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.DecayRate <= 0 || cfg.DecayRate > 1 {
		cfg.DecayRate = 0.95
	}
	if cfg.DecaySteps <= 0 {
		cfg.DecaySteps = 100
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = max(1, model.Cfg.Workers)
	}
	if cfg.StartStep < 0 {
		cfg.StartStep = 0
	}
	// The evaluators run on a shallow snapshot with one worker each; the
	// float64 networks stay aliased with model, so weight updates are
	// visible to them.
	snap := *model
	snap.Cfg.Workers = 1
	slots := make([]slot, min(cfg.Workers, cfg.BatchSize))
	for i := range slots {
		slots[i] = slot{ev: core.NewEvaluator[float64](&snap), grads: core.NewModelGrads(model)}
	}
	return &Trainer{
		step:  cfg.StartStep,
		Model: model,
		Cfg:   cfg,
		slots: slots,
		grads: core.NewModelGrads(model),
		adam:  newAdam(model),
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		spec:  neighbor.Spec{Rcut: model.Cfg.Rcut, Skin: model.Cfg.Skin, Sel: model.Cfg.Sel},
	}, nil
}

// CurrentStep returns the schedule step the next Step call will run at —
// Config.StartStep plus the steps taken so far. Callers chaining training
// stages (the active-learning loop) pass it as the next stage's StartStep
// so the learning-rate decay accumulates across retrains.
func (t *Trainer) CurrentStep() int { return t.step }

// LR returns the current decayed learning rate.
func (t *Trainer) LR() float64 {
	return t.Cfg.LR * math.Pow(t.Cfg.DecayRate, float64(t.step)/float64(t.Cfg.DecaySteps))
}

// Step samples a batch, accumulates the energy-loss gradient and applies
// one Adam update. It returns the batch loss (mean squared per-atom energy
// error), or an error for an empty frame set.
//
// The batch is drawn first, each frame's neighbor list built as it is
// drawn (a batch can draw a frame twice, and the list is cached on the
// frame). The frames then run in waves of Workers, each on its own
// evaluator into its own scratch gradient, and are folded into the loss
// and the batch gradient in draw order — the sums of a serial loop.
func (t *Trainer) Step(frames []Frame) (float64, error) {
	if len(frames) == 0 {
		return 0, errors.New("train: Step needs at least one frame")
	}
	b := t.Cfg.BatchSize
	t.batch = t.batch[:0]
	for k := 0; k < b; k++ {
		f := &frames[t.rng.Intn(len(frames))]
		if _, err := f.List(t.spec, t.Cfg.Workers); err != nil {
			return 0, err
		}
		t.batch = append(t.batch, f)
	}
	t.grads.Zero()
	var loss float64
	for k0 := 0; k0 < b; k0 += len(t.slots) {
		wave := t.batch[k0:min(b, k0+len(t.slots))]
		if err := t.evalWave(wave); err != nil {
			return 0, err
		}
		for i, f := range wave {
			n := float64(len(f.Types))
			// Gradient of ((E - E*)/n)^2 / batch w.r.t. E is
			// 2 (E - E*) / n^2 / batch; ComputeWithGrads gives dE/dtheta,
			// so chain-rule the scale in while accumulating. Gradients
			// from different frames need different scales, so each frame
			// goes through its slot's scratch gradient.
			diff := (t.slots[i].res.Energy - f.Energy) / n
			loss += diff * diff / float64(b)
			scale := 2 * diff / n / float64(b)
			addScaled(t.grads, t.slots[i].grads, scale)
		}
	}
	t.adam.apply(t.Model, t.grads, t.LR())
	t.step++
	return loss, nil
}

// evalWave evaluates frame i of the wave on slot i, slot 0 on the calling
// goroutine, and returns the first error in draw order.
func (t *Trainer) evalWave(wave []*Frame) error {
	var wg sync.WaitGroup
	for i := 1; i < len(wave); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.slots[i].eval(wave[i])
		}()
	}
	t.slots[0].eval(wave[0])
	wg.Wait()
	for i := range wave {
		if err := t.slots[i].err; err != nil {
			return err
		}
	}
	return nil
}

// eval runs one frame's force call with parameter gradients into the
// slot's zeroed scratch gradient, on the list Step built for it.
func (s *slot) eval(f *Frame) {
	s.grads.Zero()
	s.err = s.ev.ComputeWithGrads(f.Pos, f.Types, len(f.Types), f.list, &f.Box, &s.res, s.grads)
}

// addScaled accumulates dst += scale * src over all gradient tensors.
func addScaled(dst, src *core.ModelGrads, scale float64) {
	for ci := range dst.Embed {
		for tj := range dst.Embed[ci] {
			d, s := dst.Embed[ci][tj], src.Embed[ci][tj]
			for li := range d.DW {
				for k := range d.DW[li].Data {
					d.DW[li].Data[k] += scale * s.DW[li].Data[k]
				}
				for k := range d.DB[li] {
					d.DB[li][k] += scale * s.DB[li][k]
				}
			}
		}
	}
	for ci := range dst.Fit {
		d, s := dst.Fit[ci], src.Fit[ci]
		for li := range d.DW {
			for k := range d.DW[li].Data {
				d.DW[li].Data[k] += scale * s.DW[li].Data[k]
			}
			for k := range d.DB[li] {
				d.DB[li][k] += scale * s.DB[li][k]
			}
		}
	}
}
