// Water RDF: the Fig. 4 validation workflow on the public Engine API —
// train a water Deep Potential on "ab initio" (toy-water oracle) data,
// open the trained model as a double-precision and a mixed-precision
// engine, sample an ensemble of replicas over each engine's evaluator
// pool, and print the ensemble-averaged g_OO, g_OH, g_HH side by side
// with their maximum deviation (the paper's argument that mixed
// precision leaves the physics unchanged).
//
// The fuller time-averaged reproduction of Fig. 4 lives in
// `dpbench -exp fig4`; this example trades statistics for a minimal
// end-to-end program.
package main

import (
	"flag"
	"fmt"
	"log"

	deepmd "deepmd-go"
	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/refpot"
	"deepmd-go/internal/train"
)

func main() {
	log.SetFlags(0)
	steps := flag.Int("steps", 300, "Adam steps")
	replicas := flag.Int("replicas", 4, "ensemble replicas per precision")
	mdSteps := flag.Int("mdsteps", 200, "MD steps per replica")
	flag.Parse()

	cfg := core.QuickWaterConfig()
	cfg.RepA, cfg.RepRcut = 25, 0.8
	cfg.Seed = 3
	spec := deepmd.SpecFor(cfg)

	fmt.Println("training a water DP on toy-water oracle data...")
	base := lattice.Water(4, 4, 4, lattice.WaterSpacing, 3)
	data, err := train.GenData(refpot.NewToyWater(), base, spec, 24, 0.01, 0.12, 13)
	if err != nil {
		log.Fatal(err)
	}
	cfg.AtomEnerBias = train.FitEnergyBias(data, 2)
	model, err := deepmd.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := deepmd.NewTrainer(model, deepmd.TrainConfig{LR: 3e-3, BatchSize: 4, DecayRate: 0.97, DecaySteps: *steps / 15, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *steps; i++ {
		if _, err := tr.Step(data); err != nil {
			log.Fatal(err)
		}
	}
	eRMSE, _ := train.EnergyRMSE(model, data)
	fmt.Printf("trained: E-RMSE %.4f eV/atom over %d frames\n", eRMSE, len(data))

	// One engine per precision; each serves its whole replica ensemble.
	curves := map[string][3]*deepmd.RDF{}
	for _, prec := range []deepmd.Precision{deepmd.Double, deepmd.Mixed} {
		eng, err := deepmd.Open(model, deepmd.WithPrecision(prec), deepmd.WithMaxConcurrency(*replicas))
		if err != nil {
			log.Fatal(err)
		}
		systems := make([]*deepmd.System, *replicas)
		for i := range systems {
			systems[i] = deepmd.BuildWater(4, 4, 4, 3)
			systems[i].InitVelocities(330, int64(100+i))
		}
		sims, err := eng.Ensemble(systems, deepmd.SimOptions{
			Dt: 0.0005, Spec: spec, RebuildEvery: 25, ThermoEvery: 100,
		}, *mdSteps)
		if err != nil {
			log.Fatal(err)
		}
		// Ensemble-average the three partials over the replicas' final
		// configurations.
		gOO := deepmd.NewRDF(0, 0, 4.0, 60)
		gOH := deepmd.NewRDF(0, 1, 4.0, 60)
		gHH := deepmd.NewRDF(1, 1, 4.0, 60)
		for i := range sims {
			sys := systems[i]
			gOO.Accumulate(sys.Pos, sys.Types, &sys.Box)
			gOH.Accumulate(sys.Pos, sys.Types, &sys.Box)
			gHH.Accumulate(sys.Pos, sys.Types, &sys.Box)
		}
		curves[prec.String()] = [3]*deepmd.RDF{gOO, gOH, gHH}
	}

	// Print the curves for plotting and the double-vs-mixed deviation.
	names := []string{"gOO", "gOH", "gHH"}
	var maxDev float64
	for k, name := range names {
		rs, d := curves["double"][k].Curve()
		_, m := curves["mixed"][k].Curve()
		fmt.Printf("# %s: r[A]  double  mixed\n", name)
		for i := range rs {
			fmt.Printf("%.3f  %.4f  %.4f\n", rs[i], d[i], m[i])
			if dev := abs(d[i] - m[i]); dev > maxDev {
				maxDev = dev
			}
		}
		fmt.Println()
	}
	fmt.Printf("max |g_double - g_mixed| over all partials: %.4f\n", maxDev)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
