package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// The environment rows are stored ragged: after one force call on the
// paper's copper lattice (500 atoms, sel 500, 176 neighbors inside the
// cutoff) frame 0's per-slot storage — R and Geo, rT and ndT, and the
// formatted indices — holds at most 1.15 times the bytes its real rows
// need. Padding every section to sel held 2.84 times.
func TestRaggedStorageSizedByRows(t *testing.T) {
	cu := lattice.FCC(5, 5, 5, lattice.CuLatticeConst)
	cfg := CopperConfig()
	cfg.Skin = 1.0 // 18.17 A box >= 2*(8+1) A
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, cu.Pos, cu.Types, cu.N(), &cu.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("mixed", func(t *testing.T) { checkRaggedStorage[float32](t, m, cu, list) })
	t.Run("double", func(t *testing.T) { checkRaggedStorage[float64](t, m, cu, list) })
}

func checkRaggedStorage[T tensor.Float](t *testing.T, m *Model, cu *lattice.System, list *neighbor.List) {
	ev := NewEvaluator[T](m)
	var out Result
	if err := ev.Compute(cu.Pos, cu.Types, cu.N(), list, &cu.Box, &out); err != nil {
		t.Fatal(err)
	}
	fs := ev.frames[0]
	env := fs.env
	rows := env.Off[len(env.Off)-1]
	if perAtom := float64(rows) / float64(cu.N()); perAtom < 170 || perAtom > 180 {
		t.Fatalf("%.1f rows an atom, want copper's 176 neighbors inside 8 A", perAtom)
	}
	var z T
	sz := int(unsafe.Sizeof(z))
	need := rows * (8*4 + 8*4 + sz*4 + sz*4 + 4)
	held := 8*cap(env.R) + 8*cap(env.Geo) + sz*cap(fs.rT) + sz*cap(fs.ndT) + 4*cap(env.Fmt.Idx)
	ratio := float64(held) / float64(need)
	if ratio > 1.15 {
		t.Fatalf("per-slot storage holds %d bytes for %d rows (%d bytes): %.2f x, want <= 1.15 x", held, rows, need, ratio)
	}
	t.Logf("%d rows (%.1f an atom): %d bytes held, %.3f x what they need", rows, float64(rows)/float64(cu.N()), held, ratio)
}

// raggedEdgesFrame is a two-type frame whose sections exercise the ragged
// layout's edges at once: type-0 sections that overflow their Sel of 4,
// type-1 sections that are empty (only three type-1 atoms, far apart),
// and a neighbor moved onto its center under the old list, whose row
// stays zero inside its section.
func raggedEdgesFrame(t *testing.T, cfg *Config) teamFrame {
	t.Helper()
	pos, types, _, box := testSystem(t, 41, 60, cfg)
	for i := range types {
		types[i] = 0
	}
	types[3], types[30], types[57] = 1, 1, 1
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, pos, types, len(types), box, 1)
	if err != nil {
		t.Fatal(err)
	}
	pos = slices.Clone(pos)
	j := int(list.Entries[5][0])
	copy(pos[3*j:3*j+3], pos[3*5:3*5+3])
	return teamFrame{"edges", pos, types, len(types), list, box}
}

// Overflowing sections, empty sections and a coincident neighbor, at
// Workers 1 and 2: the rows stage 1 builds in blocks are the baseline
// operator's bit for bit, neighbor by neighbor; each strategy gives the same bits at both
// budgets; and Batched, Compressed (at its tabulation error), PerAtom and
// the Baseline evaluator agree within the oracle budgets of the strategy
// suites (their GEMMs sum in different orders, so they are not bitwise
// comparable).
func TestRaggedEdgesMatchAcrossStrategies(t *testing.T) {
	cfg := TinyConfig(2)
	cfg.Sel = []int{4, 10}
	f := raggedEdgesFrame(t, &cfg)
	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	base, err := descriptor.EnvironmentBaseline(nil, dcfg, f.pos, f.types, f.list, f.box)
	if err != nil {
		t.Fatal(err)
	}
	nt := len(cfg.Sel)
	empty, declined := 0, 0
	for k := 0; k < f.nloc*nt; k++ {
		if len(base.Fmt.Section(k/nt, k%nt)) == 0 {
			empty++
		}
	}
	for x := 0; x < len(base.R)/4; x++ {
		if base.R[4*x] == 0 {
			declined++
		}
	}
	if base.Fmt.Overflow == 0 || empty == 0 || declined == 0 {
		t.Fatalf("overflow %d, %d empty sections, %d declined rows: the frame misses an edge", base.Fmt.Overflow, empty, declined)
	}

	results := map[string]*Result{}
	for _, workers := range []int{1, 2} {
		c := cfg
		c.Workers = workers
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{StrategyBatched, StrategyCompressed, StrategyPerAtom} {
			ev := mustEvaluator[float64](t, m, strat)
			out := new(Result)
			if err := ev.Compute(f.pos, f.types, f.nloc, f.list, f.box, out); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/workers=%d", strat, workers)
			requireSameRows(t, label, ev.frames[0].env, base)
			if prev, ok := results[strat.String()]; ok {
				requireSameResult(t, label, out, prev)
			}
			results[strat.String()] = out
		}
		var b Result
		if err := NewBaselineEvaluator(m).Compute(f.pos, f.types, f.nloc, f.list, f.box, &b); err != nil {
			t.Fatal(err)
		}
		results[fmt.Sprintf("baseline/workers=%d", workers)] = &b
	}
	ref := results[StrategyPerAtom.String()]
	requireResultsClose(t, "batched", results[StrategyBatched.String()], ref, 1e-11)
	requireResultsClose(t, "baseline", results["baseline/workers=1"], ref, 1e-11)
	requireSameResult(t, "baseline/workers=2", results["baseline/workers=2"], results["baseline/workers=1"])
	requireResultsClose(t, "compressed", results[StrategyCompressed.String()], ref, 1e-6)
}

// requireSameRows asserts the environment a force call built holds the
// baseline operator's rows bit for bit: the same offsets and overflow
// count, as many kept neighbors per section, the same neighbors with a
// row, and each row's R and Geo the baseline's row for that neighbor. The
// baseline orders a section by distance, the optimized format by index
// inside the cutoff, so rows are matched by neighbor.
func requireSameRows(t *testing.T, label string, got, want *descriptor.EnvOut) {
	t.Helper()
	if !slices.Equal(got.Off, want.Off) || got.Fmt.Overflow != want.Fmt.Overflow {
		t.Fatalf("%s: offsets or overflow differ from the baseline operator's", label)
	}
	nt := len(want.Fmt.Sel)
	for k := 0; k < want.Nloc*nt; k++ {
		gs, ws := got.Fmt.Section(k/nt, k%nt), want.Fmt.Section(k/nt, k%nt)
		lo, n := want.Off[k], want.Off[k+1]-want.Off[k]
		if len(gs) != len(ws) {
			t.Fatalf("%s: atom %d section %d: formatted %v, baseline %v", label, k/nt, k%nt, gs, ws)
		}
		row := map[int32]int{}
		for x, j := range ws[:n] {
			row[j] = lo + x
		}
		for x, j := range gs[:n] {
			y, ok := row[j]
			if !ok {
				t.Fatalf("%s: atom %d section %d: neighbor %d has a row, not in the baseline's %v", label, k/nt, k%nt, j, ws[:n])
			}
			for c := 0; c < 4; c++ {
				if math.Float64bits(got.R[4*(lo+x)+c]) != math.Float64bits(want.R[4*y+c]) || math.Float64bits(got.Geo[4*(lo+x)+c]) != math.Float64bits(want.Geo[4*y+c]) {
					t.Fatalf("%s: atom %d section %d: neighbor %d's row differs from the baseline operator's", label, k/nt, k%nt, j)
				}
			}
		}
	}
}
