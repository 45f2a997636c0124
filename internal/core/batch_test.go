package core

import (
	"fmt"
	"math"
	"testing"

	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// batchTestConfig returns a model geometry big enough that the network
// GEMMs genuinely exercise the SIMD kernels (TinyConfig's widths keep
// everything microscopic): water-like nt = 2 with the NVE test's network,
// or copper-like nt = 1 with a single large sel.
func batchTestConfig(water bool) Config {
	if water {
		cfg := TinyConfig(2)
		cfg.TypeNames = []string{"O", "H"}
		cfg.Masses = []float64{units.MassO, units.MassH}
		cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
		cfg.Sel = []int{12, 24}
		cfg.EmbedWidths = []int{8, 16, 32}
		cfg.MAxis = 8
		cfg.FitWidths = []int{32, 32, 32}
		return cfg
	}
	cfg := TinyConfig(1)
	cfg.TypeNames = []string{"Cu"}
	cfg.Masses = []float64{units.MassCu}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 5.0, 2.0, 1.0
	cfg.Sel = []int{48}
	cfg.EmbedWidths = []int{8, 16, 32}
	cfg.MAxis = 8
	cfg.FitWidths = []int{32, 32, 32}
	return cfg
}

// The batched descriptor pipeline must match the per-atom reference path
// under the documented magnitude-proportional tolerance (DESIGN.md "GEMM
// kernels"): batching re-associates the contractions through the fused
// operator, so per-element differences are bounded by a multiple of the
// accumulated magnitude, never more. Swept across water (nt = 2) and
// copper (nt = 1), chunk sizes {1, 7, 256}, workers {1, 2, 7}, and both
// precisions.
func TestBatchedEvaluatorMatchesPerAtom(t *testing.T) {
	for _, sys := range []struct {
		name  string
		water bool
	}{{"water", true}, {"copper", false}} {
		cfg := batchTestConfig(sys.water)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pos, types, list, box := testSystem(t, 21, 60, &cfg)
		for _, chunk := range []int{1, 7, 256} {
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/chunk=%d/workers=%d", sys.name, chunk, workers)
				t.Run(name+"/float64", func(t *testing.T) {
					compareBatchedToPerAtom[float64](t, m, cfg, chunk, workers, pos, types, list, box, 1e-11)
				})
				t.Run(name+"/float32", func(t *testing.T) {
					compareBatchedToPerAtom[float32](t, m, cfg, chunk, workers, pos, types, list, box, 2e-4)
				})
			}
		}
	}
}

// compareBatchedToPerAtom evaluates the same system on the batched and
// per-atom descriptor paths and asserts energy, per-atom energies, forces
// and virial agree within relTol*(1 + |value|) per element.
func compareBatchedToPerAtom[T interface{ float32 | float64 }](t *testing.T, m *Model, cfg Config, chunk, workers int, pos []float64, types []int, list *neighbor.List, box *neighbor.Box, relTol float64) {
	t.Helper()
	cfg.ChunkSize = chunk
	cfg.Workers = workers
	mv := *m
	mv.Cfg = cfg

	evB := NewEvaluator[T](&mv)
	evR := NewEvaluator[T](&mv)
	evR.SetPerAtomDescriptors(true)

	nloc := len(types)
	var rb, rr Result
	if err := evB.Compute(pos, types, nloc, list, box, &rb); err != nil {
		t.Fatal(err)
	}
	if err := evR.Compute(pos, types, nloc, list, box, &rr); err != nil {
		t.Fatal(err)
	}
	requireResultsClose(t, "batched", &rb, &rr, relTol)
}

// requireResultsClose asserts energy, per-atom energies, forces and virial
// of got agree with the per-atom oracle's within relTol*(1 + |value|) per
// element.
func requireResultsClose(t *testing.T, what string, got, want *Result, relTol float64) {
	t.Helper()
	close := func(label string, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); !(d <= relTol*(1+math.Abs(want))) {
			t.Fatalf("%s: %s %g vs per-atom %g (|diff| %g > tol %g)", label, what, got, want, d, relTol*(1+math.Abs(want)))
		}
	}
	close("energy", got.Energy, want.Energy)
	for i := range want.AtomEnergy {
		close(fmt.Sprintf("atomEnergy[%d]", i), got.AtomEnergy[i], want.AtomEnergy[i])
	}
	for i := range want.Force {
		close(fmt.Sprintf("force[%d]", i), got.Force[i], want.Force[i])
	}
	for i := range want.Virial {
		close(fmt.Sprintf("virial[%d]", i), got.Virial[i], want.Virial[i])
	}
}

// The per-atom reference path must stay wired through the public knob at
// every parallelism setting (it shares Compute's chunk fan-out).
func TestPerAtomPathParallelMatchesSerial(t *testing.T) {
	cfg := batchTestConfig(true)
	cfg.ChunkSize = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := testSystem(t, 22, 40, &cfg)

	mPv := *m
	mPv.Cfg.Workers = 4
	mP := &mPv

	serial := NewEvaluator[float64](m)
	serial.SetPerAtomDescriptors(true)
	par := NewEvaluator[float64](mP)
	par.SetPerAtomDescriptors(true)

	var rs, rp Result
	if err := serial.Compute(pos, types, 40, list, box, &rs); err != nil {
		t.Fatal(err)
	}
	if err := par.Compute(pos, types, 40, list, box, &rp); err != nil {
		t.Fatal(err)
	}
	if rs.Energy != rp.Energy {
		t.Fatalf("per-atom parallel energy %g != serial %g", rp.Energy, rs.Energy)
	}
	for i := range rs.Force {
		if rs.Force[i] != rp.Force[i] {
			t.Fatalf("per-atom parallel force[%d] differs", i)
		}
	}
}

// The steady-state MD step must not touch the heap: after the first
// evaluation has warmed the arenas, trace scratch, chunk-job list and
// result buffers, a serial Compute performs zero allocations (the paper's
// allocate-once memory trunk, Sec. 5.2.2 — previously jobs/chunkE/traces
// were rebuilt with make() every step).
func TestComputeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations and drops sync.Pool entries; zero-alloc assertion only holds without -race")
	}
	for _, water := range []bool{true, false} {
		name := "copper"
		if water {
			name = "water"
		}
		t.Run(name, func(t *testing.T) {
			cfg := batchTestConfig(water)
			cfg.ChunkSize = 16
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator[float64](m)
			pos, types, list, box := testSystem(t, 23, 48, &cfg)
			var out Result
			// Warm-up: sizes arenas (growArenas) and every persistent slice.
			for i := 0; i < 2; i++ {
				if err := ev.Compute(pos, types, 48, list, box, &out); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := ev.Compute(pos, types, 48, list, box, &out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Compute allocated %.1f times per step, want 0", allocs)
			}
		})
	}
}
