package md

import (
	"fmt"
	"testing"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// waterReplicas builds k water systems with distinct velocity seeds plus
// a tiny water model whose cutoffs fit the box.
func waterReplicas(t *testing.T, k int) ([]*System, *core.Model, neighbor.Spec) {
	t.Helper()
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*System, k)
	for i := range systems {
		cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 5)
		systems[i] = &System{
			Pos:        cell.Pos,
			Types:      cell.Types,
			MassByType: []float64{units.MassO, units.MassH},
			Box:        cell.Box,
			Vel:        make([]float64, 3*cell.N()),
		}
		systems[i].InitVelocities(300, int64(10+i)) // distinct replicas
	}
	return systems, model, neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
}

// cloneSystem deep-copies the mutable state so a replica can be rerun
// serially as the reference trajectory.
func cloneSystem(s *System) *System {
	return &System{
		Pos:        append([]float64(nil), s.Pos...),
		Vel:        append([]float64(nil), s.Vel...),
		Types:      s.Types,
		MassByType: s.MassByType,
		Box:        s.Box,
	}
}

// Replicas running concurrently over one shared Engine must trace
// bit-identical trajectories to the same replicas run serially, each on
// its own raw evaluator: the ensemble adds concurrency, never physics.
// Every replica starts at once; a pool smaller than the ensemble bounds
// the concurrent force calls, not the replicas.
func TestRunEnsembleMatchesSerial(t *testing.T) {
	const k, steps = 3, 10
	for _, pool := range []int{k, 1, 2} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			systems, model, spec := waterReplicas(t, k)
			refs := make([]*System, k)
			for i := range systems {
				refs[i] = cloneSystem(systems[i])
			}
			opt := Options{Dt: 0.0005, Spec: spec, RebuildEvery: 5, ThermoEvery: 2}

			engine, err := core.NewEngine(model, core.Plan{MaxConcurrency: pool})
			if err != nil {
				t.Fatal(err)
			}
			sims, err := RunEnsemble(engine, systems, opt, steps)
			if err != nil {
				t.Fatal(err)
			}
			if len(sims) != k {
				t.Fatalf("%d sims for %d systems", len(sims), k)
			}

			for i := range refs {
				ref, err := NewSim(refs[i], core.NewEvaluator[float64](model), opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Run(steps); err != nil {
					t.Fatal(err)
				}
				if len(sims[i].Log) != len(ref.Log) {
					t.Fatalf("replica %d: %d thermo samples, serial %d", i, len(sims[i].Log), len(ref.Log))
				}
				for j := range ref.Log {
					if sims[i].Log[j] != ref.Log[j] {
						t.Fatalf("replica %d sample %d: ensemble %+v != serial %+v", i, j, sims[i].Log[j], ref.Log[j])
					}
				}
				for x := range refs[i].Pos {
					if systems[i].Pos[x] != refs[i].Pos[x] {
						t.Fatalf("replica %d position %d diverged from serial run", i, x)
					}
				}
			}

			// Replicas with different seeds must not have collapsed onto
			// one trajectory (guards against the ensemble sharing mutable
			// state).
			if sims[0].Log[0].Kinetic == sims[1].Log[0].Kinetic {
				t.Fatal("distinct replicas produced identical kinetic energies")
			}
		})
	}
}

// The worker hint: a simulation or relaxation over an Engine inherits the
// engine's per-evaluation worker budget for neighbor rebuilds when its
// Workers is unset, and an explicit value still wins.
func TestNewSimWorkerHint(t *testing.T) {
	systems, model, spec := waterReplicas(t, 1)
	engine, err := core.NewEngine(model, core.Plan{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(systems[0], engine, Options{Dt: 0.0005, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Opt.Workers != 3 {
		t.Fatalf("hinted Workers = %d, want 3", sim.Opt.Workers)
	}
	sim, err = NewSim(systems[0], engine, Options{Dt: 0.0005, Spec: spec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Opt.Workers != 1 {
		t.Fatalf("explicit Workers overridden to %d", sim.Opt.Workers)
	}

	// Relax keeps its resolved options private: count the hint queries.
	for _, c := range []struct {
		workers, asks int
	}{{0, 1}, {1, 0}} {
		pot := &hintCounter{Potential: engine}
		if _, err := Relax(systems[0], pot, RelaxOptions{Spec: spec, MaxSteps: 1, Workers: c.workers}); err != nil {
			t.Fatal(err)
		}
		if pot.asks != c.asks {
			t.Fatalf("Relax with Workers %d asked the potential for its budget %d times, want %d", c.workers, pot.asks, c.asks)
		}
	}
}

// hintCounter forwards to a potential and counts the WorkerHinter queries.
type hintCounter struct {
	Potential
	asks int
}

func (h *hintCounter) EvalWorkers() int {
	h.asks++
	return 3
}
