// Scaling: the Figs. 5-6 / Table 4 view — real domain-decomposed runs on
// simulated ranks (communication protocol costs are real) plus the
// calibrated Summit performance model projecting the paper's full-machine
// curves. The local runs come in two flavors: per-rank evaluators (the
// paper's deployment, one DP instance per GPU) and one shared Engine
// whose evaluator pool serves every rank's force calls — the serving
// topology of the unified API.
package main

import (
	"flag"
	"fmt"
	"log"

	deepmd "deepmd-go"
	"deepmd-go/internal/core"
	"deepmd-go/internal/experiments"
)

func main() {
	log.SetFlags(0)
	ranks := flag.Int("ranks", 8, "largest simulated rank count for the local run")
	flag.Parse()

	counts := []int{1, 2, 4}
	if *ranks > 4 {
		counts = append(counts, *ranks)
	}
	fmt.Println("== real domain-decomposed runs (simulated ranks on this host) ==")
	local, err := experiments.LocalScaling(experiments.Quick, 20, counts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(local)

	fmt.Println("== one shared Engine serving all ranks' force calls ==")
	cfg := core.QuickWaterConfig()
	model, err := deepmd.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range counts {
		sys := deepmd.BuildWater(4, 4, 4, 1)
		sys.InitVelocities(330, 2)
		eng, err := deepmd.Open(model, deepmd.WithWorkers(1), deepmd.WithMaxConcurrency(r))
		if err != nil {
			log.Fatal(err)
		}
		stats, err := deepmd.RunParallel(sys, func() deepmd.Potential { return eng }, deepmd.ParallelOptions{
			Ranks: r, Dt: 0.0005, Steps: 20, Spec: deepmd.SpecFor(cfg),
			RebuildEvery: 10, ThermoEvery: 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		perStep := stats.LoopTime.Seconds() / 20
		fmt.Printf("ranks %2d: %6.2f ms/step, %d msgs, %d bytes\n",
			r, perStep*1000, stats.Messages, stats.Bytes)
	}
	fmt.Println()

	fmt.Println("== Summit projections from the calibrated performance model ==")
	fmt.Println(experiments.Fig5Table())
	fmt.Println(experiments.Fig6Table())
	fmt.Println(experiments.Table4Text())
}
