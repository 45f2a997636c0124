package deepmd

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
)

// waterTestSetup builds the tiny water model (tables attached, so every
// strategy is legal) and a water box with its neighbor list.
func waterTestSetup(t *testing.T) (*Model, *System, *NeighborList) {
	t.Helper()
	cfg := TinyConfig(2)
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.AttachCompressedTables(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	sys := BuildWater(4, 4, 4, 1)
	list, err := BuildNeighborList(sys, SpecFor(cfg), 1)
	if err != nil {
		t.Fatal(err)
	}
	return model, sys, list
}

// requireBitIdentical asserts two results match bit for bit.
func requireBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Energy != want.Energy {
		t.Fatalf("%s: energy %.17g != raw %.17g", label, got.Energy, want.Energy)
	}
	for i := range want.Force {
		if math.Float64bits(got.Force[i]) != math.Float64bits(want.Force[i]) {
			t.Fatalf("%s: force[%d] = %g != raw %g", label, i, got.Force[i], want.Force[i])
		}
	}
	for i := range want.AtomEnergy {
		if got.AtomEnergy[i] != want.AtomEnergy[i] {
			t.Fatalf("%s: atomEnergy[%d] differs", label, i)
		}
	}
	if got.Virial != want.Virial {
		t.Fatalf("%s: virial differs", label)
	}
}

// TestOpenMatchesRawEvaluator is the facade differential suite: every
// Open(...) option combination a raw single-goroutine evaluator reaches
// from outside core must produce bit-identical energies, per-atom
// energies, forces and virials to that evaluator — the Engine adds
// pooling and validation, never arithmetic. The per-atom strategy is
// built by core's constructor alone, so its rows live in core
// (TestEngineMatchesRawEvaluator).
func TestOpenMatchesRawEvaluator(t *testing.T) {
	model, sys, list := waterTestSetup(t)
	n := sys.N()
	eval := func(t *testing.T, pot Potential) *Result {
		t.Helper()
		var r Result
		if err := pot.Compute(sys.Pos, sys.Types, n, list, &sys.Box, &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}

	cases := []struct {
		name string
		raw  func() Potential
		opts []Option
	}{
		{"double-batched", func() Potential { return core.NewEvaluator[float64](model) },
			[]Option{WithPrecision(Double), WithStrategy(Batched)}},
		{"double-compressed", func() Potential {
			ev := core.NewEvaluator[float64](model)
			if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
				t.Fatal(err)
			}
			return ev
		}, []Option{WithStrategy(Compressed)}},
		{"mixed-batched", func() Potential { return core.NewEvaluator[float32](model) },
			[]Option{WithPrecision(Mixed), WithStrategy(Batched)}},
		{"mixed-compressed", func() Potential {
			ev := core.NewEvaluator[float32](model)
			if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
				t.Fatal(err)
			}
			return ev
		}, []Option{WithPrecision(Mixed), WithStrategy(Compressed)}},
		{"baseline", func() Potential { return core.NewBaselineEvaluator(model) },
			[]Option{WithStrategy(Baseline)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := eval(t, tc.raw())
			eng, err := Open(model, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, tc.name, eval(t, eng), want)
		})
	}

	// Workers: a model configured with Workers = 2 must match
	// WithWorkers(2) over the Workers = 1 model.
	t.Run("workers2", func(t *testing.T) {
		m2 := *model
		m2.Cfg.Workers = 2
		want := eval(t, core.NewEvaluator[float64](&m2))
		eng, err := Open(model, WithStrategy(Batched), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "workers2", eval(t, eng), want)
	})
}

// Open's validation and resolution surface at the facade: sentinel errors
// match with errors.Is, and the resolved plan is observable.
func TestOpenValidation(t *testing.T) {
	cfg := TinyConfig(2)
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(model, WithStrategy(Compressed)); !errors.Is(err, ErrStrategyUnavailable) {
		t.Fatalf("compressed without tables: err = %v, want ErrStrategyUnavailable", err)
	}
	if _, err := Open(model, WithPrecision(Mixed), WithStrategy(Baseline)); !errors.Is(err, ErrStrategyUnavailable) {
		t.Fatalf("mixed baseline: err = %v, want ErrStrategyUnavailable", err)
	}
	eng, err := Open(model, WithWorkers(2), WithMaxConcurrency(3))
	if err != nil {
		t.Fatal(err)
	}
	p := eng.Plan()
	if p.Strategy != Batched || p.Precision != Double || p.Workers != 2 || p.MaxConcurrency != 3 {
		t.Fatalf("resolved plan %+v", p)
	}
	if err := model.AttachCompressedTables(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	eng, err = Open(model) // Auto now prefers the attached tables
	if err != nil {
		t.Fatal(err)
	}
	if eng.Plan().Strategy != Compressed {
		t.Fatalf("auto strategy = %s with tables attached, want compressed", eng.Plan().Strategy)
	}
}

// The Ensemble helper runs k replicas over one engine and must agree with
// serial per-replica simulations driven by raw evaluators.
func TestEngineEnsemble(t *testing.T) {
	model, _, _ := waterTestSetup(t)
	cfg := model.Cfg
	opt := SimOptions{Dt: 0.0005, Spec: SpecFor(cfg), RebuildEvery: 5, ThermoEvery: 5}

	const k, steps = 3, 10
	systems := make([]*System, k)
	refs := make([]*System, k)
	for i := range systems {
		systems[i] = BuildWater(4, 4, 4, 1)
		systems[i].InitVelocities(300, int64(20+i))
		refs[i] = BuildWater(4, 4, 4, 1)
		refs[i].InitVelocities(300, int64(20+i))
	}

	// Batched explicitly: the reference runs raw double evaluators, and
	// Auto would pick the attached tables instead.
	eng, err := Open(model, WithStrategy(Batched), WithMaxConcurrency(k))
	if err != nil {
		t.Fatal(err)
	}
	sims, err := eng.Ensemble(systems, opt, steps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		ref, err := NewSimulation(refs[i], core.NewEvaluator[float64](model), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(steps); err != nil {
			t.Fatal(err)
		}
		if len(sims[i].Log) != len(ref.Log) {
			t.Fatalf("replica %d: %d samples vs serial %d", i, len(sims[i].Log), len(ref.Log))
		}
		for j := range ref.Log {
			if sims[i].Log[j] != ref.Log[j] {
				t.Fatalf("replica %d sample %d: ensemble %+v != serial %+v", i, j, sims[i].Log[j], ref.Log[j])
			}
		}
	}
}

// The engine plugs into the domain-decomposed runner as one shared
// potential for all ranks: newPot hands every rank the same Engine.
func TestRunParallelWithSharedEngine(t *testing.T) {
	model, _, _ := waterTestSetup(t)
	sys := BuildWater(4, 4, 4, 1)
	sys.InitVelocities(300, 4)
	eng, err := Open(model, WithMaxConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunParallel(sys, func() Potential { return eng }, ParallelOptions{
		Ranks: 2, Dt: 0.0005, Steps: 10, Spec: SpecFor(model.Cfg),
		RebuildEvery: 5, ThermoEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Thermo) != 2 {
		t.Fatalf("thermo samples = %d", len(stats.Thermo))
	}
	total := 0
	for _, n := range stats.AtomsPerRank {
		total += n
	}
	if total != sys.N() {
		t.Fatalf("atoms %d, want %d", total, sys.N())
	}
}

var _ core.Strategy = Auto // the facade aliases stay in sync with core

// TestFacadeSurface pins the public API: the sorted exported identifiers
// of deepmd.go must equal testdata/api.golden, so the surface cannot
// regrow (or lose a name) without the golden file changing in the same
// diff.
func TestFacadeSurface(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "deepmd.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			got = append(got, kind+" "+id.Name)
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("func", d.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				add("method "+id.Name, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add("type", sp.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(strings.ToLower(d.Tok.String()), id)
					}
				}
			}
		}
	}
	slices.Sort(got)
	golden, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("exported but not in testdata/api.golden: %s", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("in testdata/api.golden but no longer exported: %s", name)
		}
	}
	if !t.Failed() && !slices.Equal(got, want) {
		t.Error("testdata/api.golden is not sorted or has duplicates")
	}
}

// The facade must expose a complete, working workflow end to end.
func TestFacadeWorkflow(t *testing.T) {
	cfg := TinyConfig(2)
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := BuildWater(4, 4, 4, 1)
	if sys.N() != 192 {
		t.Fatalf("water atoms = %d", sys.N())
	}
	sys.InitVelocities(300, 2)

	double, err := Open(model)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(sys, double, SimOptions{
		Dt: 0.0005, Spec: SpecFor(cfg), RebuildEvery: 20, ThermoEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(sim.Log) != 2 {
		t.Fatalf("thermo samples = %d", len(sim.Log))
	}

	// The mixed engine agrees with double on the same configuration.
	mixed, err := Open(model, WithPrecision(Mixed))
	if err != nil {
		t.Fatal(err)
	}
	list, err := BuildNeighborList(sys, SpecFor(cfg), cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	var rd, rm Result
	if err := double.Compute(sys.Pos, sys.Types, sys.N(), list, &sys.Box, &rd); err != nil {
		t.Fatal(err)
	}
	if err := mixed.Compute(sys.Pos, sys.Types, sys.N(), list, &sys.Box, &rm); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(rd.Energy - rm.Energy); d > 1e-3*float64(sys.N()) {
		t.Fatalf("precision disagreement %g", d)
	}
}

func TestFacadeBuilders(t *testing.T) {
	cu := BuildCopper(3, 3, 3)
	if cu.N() != 108 {
		t.Fatalf("copper atoms = %d", cu.N())
	}
	if cu.MassByType[0] < 63 || cu.MassByType[0] > 64 {
		t.Fatalf("copper mass %g", cu.MassByType[0])
	}
	nano := BuildNanocrystal(22, 2, 7)
	if nano.N() < 300 {
		t.Fatalf("nanocrystal too small: %d", nano.N())
	}
	cls, err := CNA(nano.Pos, nano.Types, &nano.Box, 3.08, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != nano.N() {
		t.Fatalf("CNA classified %d of %d", len(cls), nano.N())
	}
}

func TestFacadeParallelRun(t *testing.T) {
	sys := BuildCopper(3, 3, 3)
	sys.InitVelocities(200, 4)
	lj := func() Potential { return NewLennardJones(0.01, 2.3, 2.6) }
	stats, err := RunParallel(sys, lj, ParallelOptions{
		Ranks: 2, Dt: 0.001, Steps: 10, Spec: NeighborSpec{Rcut: 2.6, Skin: 0.4, Sel: []int{64}},
		RebuildEvery: 5, ThermoEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Thermo) != 2 {
		t.Fatalf("thermo samples = %d", len(stats.Thermo))
	}
	total := 0
	for _, n := range stats.AtomsPerRank {
		total += n
	}
	if total != sys.N() {
		t.Fatalf("atoms %d, want %d", total, sys.N())
	}
}

func TestFacadePerfModels(t *testing.T) {
	m := Summit()
	if m.Nodes != 4608 || m.GPUsPerNode != 6 {
		t.Fatalf("Summit description wrong: %+v", m)
	}
	w := WaterPerfModel()
	c := CopperPerfModel()
	if c.FLOPsPerAtom <= w.FLOPsPerAtom {
		t.Fatal("copper should cost more per atom than water")
	}
}

func TestFacadeTrainer(t *testing.T) {
	cfg := TinyConfig(1)
	cfg.Rcut, cfg.RcutSmth = 3.0, 1.0
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(model, TrainConfig{LR: 1e-3, BatchSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = tr // construction path; full training covered in internal/train
}
