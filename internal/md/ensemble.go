package md

import (
	"fmt"
	"sync"
)

// RunEnsemble runs one independent replica simulation per system over a
// single shared potential, every replica at once. This is the serving
// shape the Engine API exists for: k replicas — parameter sweeps,
// independent seeds, uncertainty ensembles — borrow evaluators from one
// engine's pool instead of paying k full evaluator footprints, and the
// pool's bound (core.Engine.MaxConcurrency) is what limits how many force
// calls run at a time.
//
// The shared potential MUST be goroutine-safe: a core.Engine or a
// stateless reference potential. A raw core.Evaluator is single-goroutine
// (its arenas and staging buffers race) and must not be passed here.
// Every replica owns its System, neighbor list and Result, so replica
// trajectories are bit-identical to running each serially.
//
// All replicas run to completion or to their first error; the returned
// sims always line up index-for-index with systems (with their thermo
// logs up to wherever they stopped), and the first error encountered is
// returned.
func RunEnsemble(pot Potential, systems []*System, opt Options, steps int) ([]*Sim, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("md: ensemble of zero systems")
	}
	sims := make([]*Sim, len(systems))
	for i, sys := range systems {
		s, err := NewSim(sys, pot, opt)
		if err != nil {
			return nil, fmt.Errorf("md: ensemble replica %d: %w", i, err)
		}
		sims[i] = s
	}
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for i, s := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Run(steps)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return sims, fmt.Errorf("md: ensemble replica %d: %w", i, err)
		}
	}
	return sims, nil
}
