// Quickstart: the minimal tour of the Engine API — open one model under
// different plans (precision x strategy validated once at Open time), run
// a short MD trajectory through the engine, evaluate concurrently from
// several goroutines, and run a replica ensemble over one evaluator pool.
package main

import (
	"fmt"
	"log"
	"sync"

	deepmd "deepmd-go"
	"deepmd-go/internal/units"
)

func main() {
	log.SetFlags(0)

	// A compact water-like model: two species, paper topology, small
	// widths so this runs in seconds anywhere.
	cfg := deepmd.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	model, err := deepmd.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d parameters, descriptor dim %d, stride %d\n",
		model.NumParams(), cfg.DescriptorDim(), cfg.Stride())

	// One entry point, every execution strategy: the default engine
	// resolves Auto to the fastest legal plan; the mixed engine swaps the
	// network math to float32 (Sec. 5.2.3); attaching tables first would
	// make Auto pick the compressed pipeline.
	engD, err := deepmd.Open(model)
	if err != nil {
		log.Fatal(err)
	}
	engM, err := deepmd.Open(model, deepmd.WithPrecision(deepmd.Mixed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plans: %s/%s and %s/%s (pool %d)\n",
		engD.Plan().Precision, engD.Plan().Strategy,
		engM.Plan().Precision, engM.Plan().Strategy, engD.Plan().MaxConcurrency)

	// 64 water molecules at liquid density; the engine plugs straight
	// into the MD seam (it implements Potential).
	sys := deepmd.BuildWater(4, 4, 4, 1)
	sys.InitVelocities(330, 2)
	fmt.Printf("system: %d atoms in a %.1f A box\n", sys.N(), sys.Box.L[0])
	spec := deepmd.SpecFor(cfg)
	sim, err := deepmd.NewSimulation(sys, engD, deepmd.SimOptions{
		Dt:           0.0005, // 0.5 fs, the paper's water time step
		Spec:         spec,
		RebuildEvery: 50, // the paper's neighbor cadence
		ThermoEvery:  20, // the paper's output cadence
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		log.Fatal(err)
	}
	for _, th := range sim.Log {
		fmt.Printf("step %4d  T %6.1f K  PE %10.4f eV  P %8.1f bar\n",
			th.Step, th.Temperature, th.Potential, th.Pressure)
	}

	// Engines are goroutine-safe: evaluate the final configuration in
	// both precisions concurrently, each caller with its own Result.
	list, err := deepmd.BuildNeighborList(sys, spec, engD.Plan().Workers)
	if err != nil {
		log.Fatal(err)
	}
	var rd, rm deepmd.Result
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = engD.Compute(sys.Pos, sys.Types, sys.N(), list, &sys.Box, &rd) }()
	go func() { defer wg.Done(); errs[1] = engM.Compute(sys.Pos, sys.Types, sys.N(), list, &sys.Box, &rm) }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("double E = %.6f eV, mixed E = %.6f eV, |dE| per molecule = %.3g meV\n",
		rd.Energy, rm.Energy, 1000*abs(rd.Energy-rm.Energy)/float64(sys.N()/3))

	// Replica ensembles over one pool: three independent seeds share the
	// compressed engine (tables attached once on the model).
	if err := deepmd.AttachCompressedTables(model, deepmd.CompressSpec{}); err != nil {
		log.Fatal(err)
	}
	engC, err := deepmd.Open(model) // Auto now resolves to compressed
	if err != nil {
		log.Fatal(err)
	}
	replicas := make([]*deepmd.System, 3)
	for i := range replicas {
		replicas[i] = deepmd.BuildWater(4, 4, 4, 1)
		replicas[i].InitVelocities(330, int64(10+i))
	}
	sims, err := engC.Ensemble(replicas, deepmd.SimOptions{
		Dt: 0.0005, Spec: spec, RebuildEvery: 50, ThermoEvery: 50,
	}, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ensemble over the %s engine:\n", engC.Plan().Strategy)
	for i, s := range sims {
		last := s.Log[len(s.Log)-1]
		fmt.Printf("  replica %d: step %d, T %.1f K, PE %.4f eV\n", i, last.Step, last.Temperature, last.Potential)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
