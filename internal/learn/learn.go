// Package learn closes the concurrent-learning loop that produces Deep
// Potential models in practice (the DP-GEN scheme the paper's models come
// from, and the recursive LearningMachine of the I-ReaxFF line): train an
// ensemble of independently seeded replicas on bootstrap-resampled views
// of the dataset, run exploration MD with each replica, use the
// replicas' force disagreement (the ε_f model deviation) as an
// uncertainty signal, harvest the most-uncertain frames, label them with
// a reference potential standing in for DFT, retrain, and iterate until
// the candidate fraction collapses.
//
// Because the labeler is analytic (internal/refpot), the whole loop
// closes offline and deterministically: given a seed, every round —
// bootstrap resamples, weight inits, exploration trajectories, deviation
// statistics, harvest order, retraining — reproduces bit-for-bit, which
// is what makes the loop's convergence assertable end-to-end in CI
// (cmd/dplearn, TestLoopConverges).
package learn

import (
	"fmt"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
)

// Labeler produces reference labels for a harvested configuration — the
// seam where DP-GEN submits frames to DFT. This reproduction's labelers
// wrap analytic reference potentials (refpot.NewLabeler), so labeling is
// exact, instant and offline. Force must have 3*len(types) components.
type Labeler interface {
	Label(pos []float64, types []int, box *neighbor.Box) (energy float64, force []float64, err error)
}

// Config drives the active-learning loop. The zero value of every
// optional field picks a documented default; Model, Lo and Hi must be
// set.
type Config struct {
	// Model is the template model configuration. Each replica trains its
	// own model from this template with a distinct weight seed derived
	// from Seed; its Workers is forced to 1 — training (the frames of a
	// batch) and the exploration engines take their parallelism from Plan
	// instead.
	Model core.Config
	// Plan is the requested execution plan of the replica serving engines
	// (exploration MD + deviation evaluation): strategy, precision,
	// workers, concurrency. Engines are reopened from the retrained
	// weights every round, so Mixed precision and Compressed tables stay
	// in sync with training; with Strategy Compressed the tables are
	// re-tabulated from the current weights each round.
	Plan core.Plan
	// Replicas is the ensemble size k (default 3, minimum 2).
	Replicas int
	// MaxRounds bounds the loop (default 4).
	MaxRounds int
	// Seed derives every random stream of the loop: replica weight
	// seeds, dataset perturbations, bootstrap resamples, exploration
	// velocity seeds, batch shuffles.
	Seed int64

	// InitFrames is the size of the bootstrap initial dataset labeled
	// before round 0 (default 8).
	InitFrames int
	// ValFrames is the size of the fixed held-out validation set used for
	// the per-round energy/force RMSE against the reference (default 16).
	ValFrames int
	// PerturbLo and PerturbHi bound the per-frame perturbation amplitude
	// (A) of the validation set (defaults 0.01, 0.15) — the region the
	// loop is graded on.
	PerturbLo, PerturbHi float64
	// InitPerturbLo and InitPerturbHi bound the initial dataset's
	// amplitudes (default: PerturbLo, PerturbHi). Narrower bounds start
	// the loop data-starved near equilibrium — the DP-GEN setting where
	// exploration must earn the coverage the initial data lacks.
	InitPerturbLo, InitPerturbHi float64

	// TrajPerReplica is the number of exploration trajectories each
	// replica engine drives per round (default 1).
	TrajPerReplica int
	// ExploreSteps is the MD steps per exploration trajectory
	// (default 100).
	ExploreSteps int
	// CaptureEvery snapshots exploration configurations at this cadence
	// (default 10).
	CaptureEvery int
	// Dt is the exploration time step in ps (default 0.002).
	Dt float64
	// TempK is the exploration temperature (default 100), held by a
	// Berendsen thermostat with coupling time TauPs (default 0.1).
	TempK float64
	TauPs float64

	// Lo and Hi are the ε_f bucketing thresholds in eV/A: frames below
	// Lo are accurate, in [Lo, Hi) candidates, at or above Hi failed
	// (the DP-GEN trust levels). Required.
	Lo, Hi float64
	// MaxHarvest caps the candidate frames labeled per round, highest
	// deviation first (default 16).
	MaxHarvest int
	// ConvergeFrac stops the loop once the round's candidate fraction —
	// (candidates + failed) / explored — falls below it (default 0.1).
	ConvergeFrac float64

	// Training hyper-parameters, applied per replica. Retraining after a
	// harvest warm-starts from the replica's current weights with the
	// learning-rate schedule resumed at the cumulative step count (fresh
	// Adam moments; see train.Config.StartStep).
	LR         float64 // default 3e-3
	BatchSize  int     // default 4
	DecayRate  float64 // default 0.97
	DecaySteps int     // default 20
	// InitTrainSteps trains round-0 replicas (default 100). Deliberately
	// small values under-train the initial ensemble — the regime the loop
	// exists to fix.
	InitTrainSteps int
	// TrainSteps retrains each replica after a harvest (default 100).
	TrainSteps int
}

// validate fills defaults and rejects unusable configurations.
func (c *Config) validate() error {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Replicas < 2 {
		return fmt.Errorf("learn: %d replicas cannot measure model deviation (need >= 2)", c.Replicas)
	}
	if !(c.Lo > 0) || !(c.Hi >= c.Lo) {
		return fmt.Errorf("learn: deviation thresholds lo %g / hi %g must satisfy 0 < lo <= hi", c.Lo, c.Hi)
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 4
	}
	if c.InitFrames <= 0 {
		c.InitFrames = 8
	}
	if c.ValFrames <= 0 {
		c.ValFrames = 16
	}
	if c.PerturbLo <= 0 {
		c.PerturbLo = 0.01
	}
	if c.PerturbHi <= 0 {
		c.PerturbHi = 0.15
	}
	if c.PerturbHi < c.PerturbLo {
		return fmt.Errorf("learn: perturbation bounds %g > %g", c.PerturbLo, c.PerturbHi)
	}
	if c.InitPerturbLo <= 0 {
		c.InitPerturbLo = c.PerturbLo
	}
	if c.InitPerturbHi <= 0 {
		c.InitPerturbHi = c.PerturbHi
	}
	if c.InitPerturbHi < c.InitPerturbLo {
		return fmt.Errorf("learn: initial perturbation bounds %g > %g", c.InitPerturbLo, c.InitPerturbHi)
	}
	if c.TrajPerReplica <= 0 {
		c.TrajPerReplica = 1
	}
	if c.ExploreSteps <= 0 {
		c.ExploreSteps = 100
	}
	if c.CaptureEvery <= 0 {
		c.CaptureEvery = 10
	}
	if c.Dt <= 0 {
		c.Dt = 0.002
	}
	if c.TempK <= 0 {
		c.TempK = 100
	}
	if c.TauPs <= 0 {
		c.TauPs = 0.1
	}
	if c.MaxHarvest <= 0 {
		c.MaxHarvest = 16
	}
	if c.ConvergeFrac <= 0 {
		c.ConvergeFrac = 0.1
	}
	if c.LR <= 0 {
		c.LR = 3e-3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.DecayRate <= 0 {
		c.DecayRate = 0.97
	}
	if c.DecaySteps <= 0 {
		c.DecaySteps = 20
	}
	if c.InitTrainSteps <= 0 {
		c.InitTrainSteps = 100
	}
	if c.TrainSteps <= 0 {
		c.TrainSteps = 100
	}
	// The parallelism is the plan's (training and the engines take
	// Plan.Workers); a zero Plan.Workers falls back to this, serial.
	c.Model.Workers = 1
	return nil
}

// spec returns the neighbor requirement shared by training, exploration
// and deviation evaluation.
func (c *Config) spec() neighbor.Spec {
	return neighbor.Spec{Rcut: c.Model.Rcut, Skin: c.Model.Skin, Sel: c.Model.Sel}
}
