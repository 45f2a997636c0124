// Command dptrain trains a Deep Potential model against an analytic
// "ab initio" oracle (the DFT substitution of this reproduction) and
// writes the model file dpmd can load.
//
// Usage examples:
//
//	dptrain -system copper -frames 64 -steps 2000 -out cu.dp
//	dptrain -system water  -frames 64 -steps 2000 -out water.dp
//	dptrain -system copper -strategy compressed -out cu.dp   # ships tables
//
// Training always runs the serial double-precision exact pipeline
// (parameter gradients require it); the shared engine flags
// (internal/cliopt) configure the post-training validation engine and,
// with -strategy compressed, tabulate the embedding nets into the saved
// checkpoint so dpmd serves it compressed out of the box.
package main

import (
	"flag"
	"fmt"
	"log"

	"deepmd-go/internal/cliopt"
	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/refpot"
	"deepmd-go/internal/train"
	"deepmd-go/internal/units"

	deepmd "deepmd-go"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dptrain: ")

	system := flag.String("system", "copper", "water | copper")
	frames := flag.Int("frames", 48, "training frames to generate")
	steps := flag.Int("steps", 1000, "Adam steps")
	lr := flag.Float64("lr", 3e-3, "initial learning rate")
	batch := flag.Int("batch", 4, "frames per step")
	netscale := flag.String("netscale", "tiny", "tiny | paper network geometry")
	out := flag.String("out", "model.dp", "output model file")
	seed := flag.Int64("seed", 1, "random seed")
	eng := cliopt.Bind(flag.CommandLine, 1)
	flag.Parse()

	var cfg core.Config
	var oracle md.Potential
	var base *lattice.System
	switch *system {
	case "copper":
		cfg = core.TinyConfig(1)
		cfg.TypeNames = []string{"Cu"}
		cfg.Masses = []float64{units.MassCu}
		cfg.Rcut, cfg.RcutSmth, cfg.Skin = 5.0, 2.0, 1.0
		cfg.Sel = []int{80}
		if *netscale == "paper" {
			cfg.EmbedWidths = []int{25, 50, 100}
			cfg.FitWidths = []int{240, 240, 240}
			cfg.MAxis = 16
		}
		sc := refpot.NewSuttonChenCu()
		sc.Rcut = 5.0
		oracle = sc
		base = lattice.FCC(4, 4, 4, lattice.CuLatticeConst)
	case "water":
		cfg = core.TinyConfig(2)
		cfg.TypeNames = []string{"O", "H"}
		cfg.Masses = []float64{units.MassO, units.MassH}
		cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
		cfg.Sel = []int{12, 24}
		cfg.RepA, cfg.RepRcut = 25, 0.8
		if *netscale == "paper" {
			cfg.EmbedWidths = []int{25, 50, 100}
			cfg.FitWidths = []int{240, 240, 240}
			cfg.MAxis = 16
		}
		oracle = refpot.NewToyWater()
		base = lattice.Water(4, 4, 4, lattice.WaterSpacing, *seed)
	default:
		log.Fatalf("unknown system %q", *system)
	}
	cfg.Seed = *seed

	// Resolve and validate the serving plan UP FRONT: a flag typo or an
	// illegal combination (e.g. -precision mixed -strategy baseline)
	// must not cost a full data-generation + training run before
	// surfacing. The compressed strategy is validated as batched here —
	// its tables are tabulated from the trained weights at the end.
	opts, err := eng.Options()
	if err != nil {
		log.Fatal(err)
	}
	var req deepmd.Plan
	for _, o := range opts {
		o(&req)
	}
	probeReq := req
	if probeReq.Strategy == deepmd.Compressed {
		probeReq.Strategy = deepmd.Batched
	}
	plan, err := core.ResolvePlan(&core.Model{Cfg: cfg}, probeReq)
	if err != nil {
		log.Fatal(err)
	}

	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	fmt.Printf("generating %d frames from the %s oracle...\n", *frames, *system)
	data, err := train.GenData(oracle, base, spec, *frames, 0.01, 0.15, *seed+10)
	if err != nil {
		log.Fatal(err)
	}
	cfg.AtomEnerBias = train.FitEnergyBias(data, cfg.NumTypes())

	model, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := train.NewTrainer(model, train.Config{
		LR: *lr, BatchSize: *batch, DecayRate: 0.97, DecaySteps: *steps / 20, Seed: *seed,
		Workers: plan.Workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *steps; i++ {
		loss, err := tr.Step(data)
		if err != nil {
			log.Fatal(err)
		}
		if i%(max(1, *steps/10)) == 0 || i == *steps-1 {
			eRMSE, _ := train.EnergyRMSE(model, data)
			fRMSE, _ := train.ForceRMSE(model, data)
			fmt.Printf("step %5d  loss %.3e  E-RMSE %.4f eV/atom  F-RMSE %.3f eV/A  lr %.2e\n",
				i, loss, eRMSE, fRMSE, tr.LR())
		}
	}

	// Tabulate the trained nets when the serving strategy asks for it, so
	// the checkpoint round-trips compressed (the successor papers ship
	// compressed models the same way).
	if eng.Strategy == "compressed" {
		if err := model.AttachCompressedTables(compress.Spec{}); err != nil {
			log.Fatal(err)
		}
	}

	// Validate through an Engine running the exact plan that will serve
	// the model (mixed precision, compressed tables, ...), not just the
	// training pipeline.
	engine, err := deepmd.Open(model, opts...)
	if err != nil {
		log.Fatal(err)
	}
	served := engine.Plan()
	eRMSE, err := train.EnergyRMSEWith(engine, spec, served.Workers, data)
	if err != nil {
		log.Fatal(err)
	}
	fRMSE, err := train.ForceRMSEWith(engine, spec, served.Workers, data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving plan %s/%s: E-RMSE %.4f eV/atom  F-RMSE %.3f eV/A\n",
		served.Precision, served.Strategy, eRMSE, fRMSE)

	if err := model.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d parameters)\n", *out, model.NumParams())
}
