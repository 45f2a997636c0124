package core

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perf"
)

// latticeSystem builds a physically-spaced system for the compression
// tests: unlike testSystem's uniform-random positions (whose pair
// distances can be arbitrarily small, pushing s(r) past any finite table
// domain), lattice geometries keep every distance above the documented
// domain floor, as real simulations do — water's closest pair is the
// ~0.96 A O-H bond, copper's the perturbed ~2.5 A FCC nearest neighbor.
func latticeSystem(t testing.TB, water bool, cfg *Config) ([]float64, []int, *neighbor.List, *neighbor.Box) {
	t.Helper()
	var cell *lattice.System
	if water {
		cell = lattice.Water(4, 4, 4, lattice.WaterSpacing, 7)
	} else {
		c := lattice.FCC(4, 4, 4, 3.615)
		lattice.Perturb(c, 0.05, 3)
		cell = c
	}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cell.Pos, cell.Types, list, &cell.Box
}

// The compressed evaluator must match the exact-batched path under a
// tolerance tied to the table resolution. At the default resolution the
// quintic's derivative error is O(h⁵) ~ 1e-13 per lookup; after
// amplification through the descriptor contraction and fitting net the
// float64 forces stay within 1e-8·(1+|F|) of the exact path, and the
// float32 path is bounded by single-precision roundoff (same 2e-4 budget
// as the batched-vs-per-atom sweep), not by the table. Swept across water
// (nt = 2) and copper (nt = 1), chunk sizes {1, 7, 256}, workers
// {1, 2, 7}, and both precisions — the mirror of
// TestBatchedEvaluatorMatchesPerAtom for the third execution strategy.
func TestCompressedEvaluatorMatchesBatched(t *testing.T) {
	for _, sys := range []struct {
		name  string
		water bool
	}{{"water", true}, {"copper", false}} {
		cfg := batchTestConfig(sys.water)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Attach the tables once: the sweep's evaluators (both
		// precisions) must all pick up the checkpoint-attached build.
		if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
			t.Fatal(err)
		}
		pos, types, list, box := latticeSystem(t, sys.water, &cfg)
		for _, chunk := range []int{1, 7, 256} {
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/chunk=%d/workers=%d", sys.name, chunk, workers)
				t.Run(name+"/float64", func(t *testing.T) {
					compareCompressedToBatched[float64](t, m, cfg, chunk, workers, pos, types, list, box, 1e-8)
				})
				t.Run(name+"/float32", func(t *testing.T) {
					compareCompressedToBatched[float32](t, m, cfg, chunk, workers, pos, types, list, box, 2e-4)
				})
			}
		}
	}
}

// compareCompressedToBatched evaluates the same system on the compressed
// and exact-batched paths and asserts energy, per-atom energies, forces
// and virial agree within relTol*(1 + |value|) per element.
func compareCompressedToBatched[T interface{ float32 | float64 }](t *testing.T, m *Model, cfg Config, chunk, workers int, pos []float64, types []int, list *neighbor.List, box *neighbor.Box, relTol float64) {
	t.Helper()
	cfg.ChunkSize = chunk
	cfg.Workers = workers
	mv := *m
	mv.Cfg = cfg

	evC := NewEvaluator[T](&mv)
	if err := evC.SetCompressedEmbedding(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	evX := NewEvaluator[T](&mv)

	nloc := len(types)
	var rc, rx Result
	if err := evC.Compute(pos, types, nloc, list, box, &rc); err != nil {
		t.Fatal(err)
	}
	if err := evX.Compute(pos, types, nloc, list, box, &rx); err != nil {
		t.Fatal(err)
	}
	close := func(label string, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); d > relTol*(1+math.Abs(want)) {
			t.Fatalf("%s: compressed %g vs exact %g (|diff| %g > tol %g)", label, got, want, d, relTol*(1+math.Abs(want)))
		}
	}
	close("energy", rc.Energy, rx.Energy)
	for i := range rx.AtomEnergy {
		close(fmt.Sprintf("atomEnergy[%d]", i), rc.AtomEnergy[i], rx.AtomEnergy[i])
	}
	for i := range rx.Force {
		close(fmt.Sprintf("force[%d]", i), rc.Force[i], rx.Force[i])
	}
	for i := range rx.Virial {
		close(fmt.Sprintf("virial[%d]", i), rc.Virial[i], rx.Virial[i])
	}
}

// The compressed steady-state MD step must stay allocation-free: the
// table lookup writes into arena buffers and the collapsed backward dot
// takes its output from the arena, so after warm-up a serial Compute
// performs zero allocations, exactly like the exact-batched path.
func TestComputeZeroAllocCompressed(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations; zero-alloc assertion only holds without -race")
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
			if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
				t.Fatal(err)
			}
			pos, types, list, box := latticeSystem(t, water, &cfg)
			n := len(types)
			var out Result
			for i := 0; i < 2; i++ {
				if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := ev.Compute(pos, types, n, list, box, &out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state compressed Compute allocated %.1f times per step, want 0", allocs)
			}
		})
	}
}

// A compressed model round-trips through the checkpoint: Save writes the
// attached tables, Load restores them, and an evaluator built from the
// loaded model produces bitwise-identical results to one built from the
// original (same weights, same table coefficients).
func TestCompressedModelRoundTrip(t *testing.T) {
	cfg := batchTestConfig(true)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachCompressedTables(compress.Spec{NSeg: 128}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "compressed.dp")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Compressed == nil {
		t.Fatal("loaded model lost its compressed tables")
	}
	for ci := range m.Compressed {
		for tj := range m.Compressed[ci] {
			want, have := m.Compressed[ci][tj], got.Compressed[ci][tj]
			if want.NSeg != have.NSeg || want.M != have.M {
				t.Fatalf("table (%d,%d) header changed in round trip", ci, tj)
			}
			for i := range want.Coef {
				if want.Coef[i] != have.Coef[i] {
					t.Fatalf("table (%d,%d) coefficient %d changed in round trip", ci, tj, i)
				}
			}
		}
	}

	pos, types, list, box := latticeSystem(t, true, &cfg)
	n := len(types)
	evA := NewEvaluator[float64](m)
	if err := evA.SetCompressedEmbedding(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	evB := NewEvaluator[float64](got)
	if err := evB.SetCompressedEmbedding(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	var ra, rb Result
	if err := evA.Compute(pos, types, n, list, box, &ra); err != nil {
		t.Fatal(err)
	}
	if err := evB.Compute(pos, types, n, list, box, &rb); err != nil {
		t.Fatal(err)
	}
	if ra.Energy != rb.Energy {
		t.Fatalf("round-tripped energy %g != original %g", rb.Energy, ra.Energy)
	}
	for i := range ra.Force {
		if ra.Force[i] != rb.Force[i] {
			t.Fatalf("round-tripped force[%d] differs", i)
		}
	}
}

// Models saved without tables (including every pre-compression
// checkpoint, whose stream simply ends after the fitting nets) load as
// uncompressed models.
func TestUncompressedModelLoads(t *testing.T) {
	cfg := TinyConfig(2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plain.dp")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Compressed != nil {
		t.Fatal("uncompressed model grew tables in round trip")
	}
}

// Parameter gradients are not representable on the compressed path (the
// embedding weights are gone from the graph); the trainer entry point
// must refuse rather than silently return wrong gradients.
func TestComputeWithGradsRejectsCompressed(t *testing.T) {
	cfg := TinyConfig(1)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator[float64](m)
	if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := testSystem(t, 3, 8, &cfg)
	var out Result
	err = ev.ComputeWithGrads(pos, types, 8, list, box, &out, NewModelGrads(m))
	if err == nil || !strings.Contains(err.Error(), "compressed") {
		t.Fatalf("ComputeWithGrads on compressed path: err = %v, want compressed rejection", err)
	}
}

// The fused compressed path keeps no embedding matrix: after two warm
// Compute calls on the paper's copper model (5x5x5 cells, sel 500, mixed
// precision, chunk 256) every worker's arena stays below 32 MB — it holds
// the chunk's descriptors, the fitting traces and one tile of scratch.
// The materialise-then-contract pipeline this replaced needed about
// 200 MB per worker for the three 256 x 500 x 100 operands.
func TestCompressedArenaFootprint(t *testing.T) {
	cfg := CopperConfig()
	cfg.Skin = 1.0 // 18.075 A box >= 2*(8+1) A
	cfg.ChunkSize = 256
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator[float32](m)
	ctr := perf.NewCounter()
	ev.Counter = ctr
	if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	cell := lattice.FCC(5, 5, 5, 3.615)
	lattice.Perturb(cell, 0.05, 3)
	n := cell.N()
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, cell.Pos, cell.Types, n, &cell.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	for i := 0; i < 2; i++ {
		ctr.Reset()
		if err := ev.Compute(cell.Pos, cell.Types, n, list, &cell.Box, &out); err != nil {
			t.Fatal(err)
		}
	}
	const limit = 32 << 20
	if got := ev.ArenaBytes(); got >= limit*len(ev.arenas) {
		t.Fatalf("compressed arenas hold %d bytes over %d worker(s), want < %d each", got, len(ev.arenas), limit)
	}

	// The counter charges the fused operator for the neighbors it visited,
	// not for the padded stride: one step stays well under the full-stride
	// analytic count of the table path, and CUSTOM time was recorded for it.
	fullStride := float64(n) * (cfg.FLOPsPerAtomStep([]float64{1}) - cfg.EmbedFLOPsPerAtomStep() + cfg.CompressedEmbedFLOPsPerAtomStep())
	if got := float64(ctr.FLOPs()); got <= 0 || got > 0.75*fullStride {
		t.Fatalf("one compressed step charged %.3g FLOPs, want executed work well under the full-stride %.3g (about 180 of 500 slots are real)", got, fullStride)
	}
	if ctr.CategoryTime(perf.CatCUSTOM) <= 0 {
		t.Fatal("no CUSTOM time recorded for the fused operator")
	}
}
