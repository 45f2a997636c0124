// Command dplearn closes the concurrent-learning loop offline: train an
// ensemble of Deep Potential replicas, explore with MD, measure the
// ensemble force deviation (DP-GEN's ε_f), harvest the frames the
// ensemble is uncertain about, label them with the analytic reference
// potential standing in for DFT, retrain, and iterate until the
// candidate fraction collapses.
//
// Usage examples:
//
//	dplearn                          # CI-fast LJ crystal, converges in ~5 rounds
//	dplearn -system copper -rounds 8 -report cu_learn.json
//	dplearn -replicas 4 -temp 120 -lo 5e-3 -hi 0.3
//
// The per-round convergence report (candidate fraction, deviation
// histogram, validation RMSE against the reference) prints as a table
// and, with -report, is written as JSON (see EXPERIMENTS.md for the
// schema). Training always runs the serial exact pipeline; the shared
// engine flags (internal/cliopt) configure the exploration engines each
// replica serves its MD and deviation evaluations with.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"deepmd-go/internal/cliopt"
	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/learn"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/refpot"
	"deepmd-go/internal/units"

	deepmd "deepmd-go"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dplearn: ")

	system := flag.String("system", "lj", "lj | copper")
	replicas := flag.Int("replicas", 3, "ensemble size k")
	rounds := flag.Int("rounds", 6, "maximum learning rounds")
	seed := flag.Int64("seed", 12345, "random seed deriving every stream of the loop")
	initFrames := flag.Int("init-frames", 4, "initial labeled frames")
	valFrames := flag.Int("val-frames", 16, "held-out validation frames")
	traj := flag.Int("traj", 2, "exploration trajectories per replica per round")
	exploreSteps := flag.Int("explore-steps", 60, "MD steps per exploration trajectory")
	captureEvery := flag.Int("capture-every", 10, "snapshot cadence along exploration trajectories")
	temp := flag.Float64("temp", 60, "exploration temperature (K)")
	lo := flag.Float64("lo", 8e-3, "ε_f accurate/candidate threshold (eV/A)")
	hi := flag.Float64("hi", 0.5, "ε_f candidate/failed threshold (eV/A)")
	maxHarvest := flag.Int("max-harvest", 12, "candidates labeled per round")
	convergeFrac := flag.Float64("converge-frac", 0.05, "stop once candidate fraction falls below this")
	lr := flag.Float64("lr", 3e-3, "initial learning rate")
	initSteps := flag.Int("init-steps", 150, "Adam steps for the round-0 replicas")
	trainSteps := flag.Int("train-steps", 200, "Adam steps per retrain round")
	report := flag.String("report", "", "write the JSON convergence report here")
	eng := cliopt.Bind(flag.CommandLine, 1)
	flag.Parse()

	cfg := learn.Config{
		Replicas:       *replicas,
		MaxRounds:      *rounds,
		Seed:           *seed,
		InitFrames:     *initFrames,
		ValFrames:      *valFrames,
		TrajPerReplica: *traj,
		ExploreSteps:   *exploreSteps,
		CaptureEvery:   *captureEvery,
		TempK:          *temp,
		Lo:             *lo,
		Hi:             *hi,
		MaxHarvest:     *maxHarvest,
		ConvergeFrac:   *convergeFrac,
		LR:             *lr,
		InitTrainSteps: *initSteps,
		TrainSteps:     *trainSteps,
	}
	if err := checkFlags(&cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dplearn: %v\n", err)
		os.Exit(2)
	}

	var oracle md.Potential
	var base *lattice.System
	switch *system {
	case "lj":
		// The CI system: a 32-atom LJ crystal the default flags converge
		// on in a few rounds (mirrors the end-to-end test).
		mc := core.TinyConfig(1)
		mc.Rcut, mc.RcutSmth, mc.Skin = 3.0, 1.0, 0.5
		mc.Sel = []int{20}
		cfg.Model = mc
		cfg.PerturbLo, cfg.PerturbHi = 0.01, 0.25
		cfg.DecayRate, cfg.DecaySteps = 0.9, 30
		oracle = refpot.NewLennardJones(0.05, 2.6, 3.0)
		base = lattice.FCC(2, 2, 2, 4.2)
	case "copper":
		mc := core.TinyConfig(1)
		mc.TypeNames = []string{"Cu"}
		mc.Masses = []float64{units.MassCu}
		mc.Rcut, mc.RcutSmth, mc.Skin = 5.0, 2.0, 1.0
		mc.Sel = []int{80}
		cfg.Model = mc
		cfg.PerturbLo, cfg.PerturbHi = 0.01, 0.15
		cfg.DecayRate, cfg.DecaySteps = 0.9, 30
		sc := refpot.NewSuttonChenCu()
		sc.Rcut = 5.0
		oracle = sc
		base = lattice.FCC(2, 2, 2, lattice.CuLatticeConst)
	default:
		log.Fatalf("unknown system %q", *system)
	}

	// Resolve and validate the exploration plan up front — a flag typo
	// must not cost a full training round before surfacing. A compressed
	// plan resolves without tables: they are tabulated from each round's
	// retrained weights inside the loop.
	opts, err := eng.Options()
	if err != nil {
		log.Fatal(err)
	}
	var req deepmd.Plan
	for _, o := range opts {
		o(&req)
	}
	if _, err := core.ResolvePlan(&core.Model{Cfg: cfg.Model}, req); err != nil {
		log.Fatal(err)
	}
	cfg.Plan = req

	spec := neighbor.Spec{Rcut: cfg.Model.Rcut, Skin: cfg.Model.Skin, Sel: cfg.Model.Sel}
	labeler := refpot.NewLabeler(oracle, spec, 1)
	fmt.Printf("system %s: %d atoms, %d replicas, up to %d rounds (seed %d)\n",
		*system, base.N(), cfg.Replicas, cfg.MaxRounds, cfg.Seed)

	loop, err := learn.NewLoop(cfg, base, labeler)
	if err != nil {
		log.Fatal(err)
	}
	loop.SetSystemName(*system)
	// The report carries the budget the loop validated.
	for round := 0; round < loop.Report().MaxRounds; round++ {
		converged, err := loop.RunRound(round)
		if err != nil {
			log.Fatal(err)
		}
		rep := loop.Report()
		rd := rep.Rounds[len(rep.Rounds)-1]
		fmt.Printf("round %d: explored %d (acc %d / cand %d / fail %d, %.1f%% candidates)  "+
			"mean ε_f %.3e  F-RMSE %.3e  dataset %d (+%d)\n",
			rd.Round, rd.Explored, rd.Accurate, rd.Candidate, rd.Failed,
			100*rd.CandidateFrac, rd.MeanDev, rd.ForceRMSE, rd.DatasetSize, rd.Harvested)
		if converged {
			break
		}
	}

	rep := loop.Report()
	fmt.Print("\n" + rep.Summary())
	if !rep.Converged {
		fmt.Printf("not converged after %d rounds\n", len(rep.Rounds))
	}

	if *report != "" {
		// Temp-and-rename: an interrupted run must not leave a truncated
		// file that passes for a report (see atomicWrite).
		if err := atomicWrite(*report, rep.WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *report)
	}
}

// checkFlags rejects the flag values the loop cannot run on, before
// anything is built: a count below one (or an ensemble below two
// replicas, which cannot measure a deviation), a temperature, learning
// rate or convergence fraction that is not finite and positive, and
// deviation thresholds out of order. The loop would otherwise replace
// some of them with its defaults and run on those.
func checkFlags(c *learn.Config) error {
	if c.Replicas < 2 {
		return fmt.Errorf("-replicas %d: need at least two replicas to measure a deviation", c.Replicas)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-rounds", c.MaxRounds},
		{"-init-frames", c.InitFrames},
		{"-val-frames", c.ValFrames},
		{"-traj", c.TrajPerReplica},
		{"-explore-steps", c.ExploreSteps},
		{"-capture-every", c.CaptureEvery},
		{"-max-harvest", c.MaxHarvest},
		{"-init-steps", c.InitTrainSteps},
		{"-train-steps", c.TrainSteps},
	} {
		if f.v < 1 {
			return fmt.Errorf("%s %d: need at least one", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"-temp", c.TempK},
		{"-lr", c.LR},
		{"-converge-frac", c.ConvergeFrac},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s %g: need a finite value > 0", f.name, f.v)
		}
	}
	if !(c.Lo > 0) || !(c.Hi >= c.Lo) || math.IsInf(c.Hi, 1) {
		return fmt.Errorf("-lo %g, -hi %g: need finite 0 < lo <= hi", c.Lo, c.Hi)
	}
	return nil
}
