package experiments

import (
	"math"
	"strings"
	"testing"

	"deepmd-go/internal/analysis"
	"deepmd-go/internal/core"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perf"
)

// These are shape tests: they assert what an experiment must produce on any
// machine under any load — the rows and their names, positive durations,
// FLOP counts and Fig. 3 attribution against the analytic model, accuracy
// and memory bounds. No test here compares two wall-clock measurements:
// which side of a contrast is faster, and by how much, is a measurement,
// and measurements are judged by `go run ./bench -compare old.json
// new.json` on quiet, paired runs — not by `go test` on a shared box
// (ROADMAP aim 3).

// Table 3: one row per customized operator, baseline and optimized both
// measured.
func TestTable3Shape(t *testing.T) {
	res, err := Table3(Quick, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Atoms != 3*5*5*5 {
		t.Fatalf("atoms = %d, want 375 (5^3 molecules)", res.Atoms)
	}
	wantOps := []string{"Environment", "ProdVirial", "ProdForce"}
	if len(res.Rows) != len(wantOps) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(wantOps))
	}
	for i, row := range res.Rows {
		if row.Op != wantOps[i] {
			t.Errorf("row %d is %q, want %q", i, row.Op, wantOps[i])
		}
		if row.Baseline <= 0 || row.Optimized <= 0 {
			t.Errorf("%s: non-positive timing %+v", row.Op, row)
		}
		if !strings.Contains(res.String(), row.Op) {
			t.Errorf("table text missing the %s row", row.Op)
		}
	}
}

// Sec. 5.2.2 ablation: both sorts run on real neighbor data.
func TestAblationSortShape(t *testing.T) {
	structT, keyT, err := AblationSort(Quick, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if structT <= 0 || keyT <= 0 {
		t.Errorf("non-positive timing: struct sort %v, compressed-key format %v", structT, keyT)
	}
}

// countedFLOPs runs steps force evaluations of the Quick water or copper
// system with a counter attached and returns the atom count, the FLOPs the
// operators charged, and what the analytic model charges one evaluation at
// the shapes the evaluator executes (core.Config.ExecutedFLOPs).
func countedFLOPs(t *testing.T, water, mixed bool, steps int) (atoms int, flops int64, executed float64) {
	t.Helper()
	var (
		pos   []float64
		types []int
		list  *neighbor.List
		box   *neighbor.Box
		err   error
	)
	cfg := copperModelConfig(Quick)
	if water {
		cfg = waterModelConfig(Quick)
		pos, types, list, box, err = waterBox(&cfg, waterNX(Quick), 1)
	} else {
		pos, types, list, box, err = copperBox(&cfg, copperNX(Quick))
	}
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctr := perf.NewCounter()
	var pot md.Potential
	if mixed {
		ev := core.NewEvaluator[float32](model)
		ev.Counter = ctr
		pot = ev
	} else {
		ev := core.NewEvaluator[float64](model)
		ev.Counter = ctr
		pot = ev
	}
	var out core.Result
	for s := 0; s < steps; s++ {
		if err := pot.Compute(pos, types, len(types), list, box, &out); err != nil {
			t.Fatal(err)
		}
	}
	var sc descriptor.Scratch
	env, err := sc.Environment(nil, descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	if executed, err = model.Cfg.ExecutedFLOPs(types, env); err != nil {
		t.Fatal(err)
	}
	return len(types), ctr.FLOPs(), executed
}

// Fig. 3: four bars, each a complete percent-stacked breakdown over the
// five operator categories; and the quantity behind the paper's ordering
// (GEMM share larger for copper than water) checked where it is
// deterministic — the FLOPs the operators charge equal the analytic model
// at the executed shapes (core.Config.ExecutedFLOPs) to a few percent, are
// the same in both precisions and every step, exceed the paper's
// full-stride count (core.Config.FLOPsPerAtomStep) by no more than the
// embedding pass the fused operator recomputes, and are larger per atom for
// copper than for water, several times so in the padded convention.
func TestFig3Shape(t *testing.T) {
	res, err := Fig3(Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{"Cu-Double", "Cu-Mixed", "H2O-Double", "H2O-Mixed"}
	if len(res.Columns) != len(wantLabels) {
		t.Fatalf("columns = %d, want %d", len(res.Columns), len(wantLabels))
	}
	for i, c := range res.Columns {
		if c.Label != wantLabels[i] {
			t.Errorf("column %d is %q, want %q", i, c.Label, wantLabels[i])
		}
		var sum float64
		for _, cat := range []string{"GEMM", "TANH", "SLICE", "CUSTOM", "Others"} {
			v, ok := c.Breakdown[cat]
			if !ok || v < 0 || v > 100 {
				t.Errorf("%s: category %s share %v (present %v)", c.Label, cat, v, ok)
			}
			sum += v
		}
		if len(c.Breakdown) != 5 || math.Abs(sum-100) > 1e-6 {
			t.Errorf("%s: %d categories summing to %.6f%%, want 5 summing to 100%%", c.Label, len(c.Breakdown), sum)
		}
		if c.Breakdown["GEMM"] <= 0 || c.Breakdown["CUSTOM"] <= 0 {
			t.Errorf("%s: GEMM %.1f%% / CUSTOM %.1f%% — an operator family went unattributed", c.Label, c.Breakdown["GEMM"], c.Breakdown["CUSTOM"])
		}
		var tierSum float64
		for _, tier := range []string{"strip", "dot", "naive"} {
			v, ok := c.Tiers[tier]
			if !ok || v < 0 || v > 1 {
				t.Errorf("%s: tier %s serves %v of the GEMM FLOPs (present %v)", c.Label, tier, v, ok)
			}
			tierSum += v
		}
		if len(c.Tiers) != 3 || math.Abs(tierSum-1) > 1e-9 {
			t.Errorf("%s: %d kernel tiers serving %.9f of the GEMM FLOPs, want 3 serving all of them", c.Label, len(c.Tiers), tierSum)
		}
	}

	perAtom, full := map[bool]float64{}, map[bool]float64{}
	for _, water := range []bool{false, true} {
		typeFrac, cfg := []float64{1}, copperModelConfig(Quick)
		if water {
			typeFrac, cfg = []float64{1.0 / 3, 2.0 / 3}, waterModelConfig(Quick)
		}
		n, one, executed := countedFLOPs(t, water, false, 1)
		if _, three, _ := countedFLOPs(t, water, false, 3); three != 3*one {
			t.Errorf("water=%v: 3 steps charged %d FLOPs, want 3 x %d", water, three, one)
		}
		if _, mixed, _ := countedFLOPs(t, water, true, 1); mixed != one {
			t.Errorf("water=%v: mixed charged %d FLOPs, double %d — precision must not change the count", water, mixed, one)
		}
		perAtom[water] = float64(one) / float64(n)
		if dev := math.Abs(float64(one)/executed - 1); dev > 0.05 {
			t.Errorf("water=%v: counted %.0f FLOPs/atom/step vs analytic %.0f at the executed shapes (%.1f%% apart, want < 5%%)", water, perAtom[water], executed/float64(n), 100*dev)
		}
		// No work on padding: the fused operator visits real neighbors only.
		// What it executes beyond the paper's single-pass padded count is
		// the embedding forward pass its backward half recomputes (FLOPs for
		// bytes), itself bounded by the padded embedding charge — at Quick
		// water's 27 of 36 slots and 4-8-16 widths the recomputation
		// outweighs the skipped padding by 7 %.
		full[water] = cfg.FLOPsPerAtomStep(typeFrac)
		if bound := full[water] + cfg.EmbedFLOPsPerAtomStep(); perAtom[water] > 1.05*bound {
			t.Errorf("water=%v: counted %.0f FLOPs/atom/step exceeds the full-stride model plus one recomputed embedding pass, %.0f", water, perAtom[water], bound)
		}
	}
	// The paper's 3.3x (Sec. 6.1: 64.9 vs 19.8 MFLOPs) is an NVPROF count of
	// the padded layout, so > 2 is asserted on the full-stride model. The
	// counted ratio is the executed one: Quick copper fills 42 of its 110
	// padded slots and Quick water 27 of its 36, which leaves 1.5x.
	if ratio := full[false] / full[true]; ratio < 2 {
		t.Errorf("copper/water full-stride FLOPs per atom = %.2f, want > 2 (paper Sec. 6.1: ~3.3x)", ratio)
	}
	if ratio := perAtom[false] / perAtom[true]; ratio < 1.25 {
		t.Errorf("copper/water counted FLOPs per atom = %.2f, want > 1.25 (executed work, real neighbors only)", ratio)
	}
}

// Mixed precision: small deviations and about half the network memory —
// the deterministic half of the Sec. 7.1.3 shape. On scalar CPU Go,
// float32 math has the same per-op throughput as float64 (the GPU's 2x
// single-precision peak is a hardware property; see DESIGN.md); the 1.5x
// GPU speedup is reproduced by the calibrated performance model
// (internal/perfmodel, Fig. 5 mixed curves).
func TestMixedShape(t *testing.T) {
	res, err := Mixed(Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Atoms != 192 {
		t.Errorf("atoms = %d, want 192", res.Atoms)
	}
	if res.EnergyDevPerMol > 5e-3 {
		t.Errorf("energy deviation %.2e eV/molecule too large", res.EnergyDevPerMol)
	}
	if res.ForceRMSD > 0.05 {
		t.Errorf("force RMSD %.2e too large", res.ForceRMSD)
	}
	if res.DoubleTimePerEval <= 0 || res.MixedTimePerEval <= 0 {
		t.Errorf("non-positive timing: double %v, mixed %v", res.DoubleTimePerEval, res.MixedTimePerEval)
	}
	if res.MemoryRatio < 0.4 || res.MemoryRatio > 0.6 {
		t.Errorf("memory ratio %.2f, want ~0.5", res.MemoryRatio)
	}
}

// Sec. 7.1.1: all three whole-evaluation strategies measured on the same
// system.
func TestSingleShape(t *testing.T) {
	res, err := Single(Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Atoms != 192 {
		t.Errorf("atoms = %d, want 192", res.Atoms)
	}
	if res.Baseline <= 0 || res.Double <= 0 || res.Mixed <= 0 {
		t.Errorf("non-positive timing %+v", res)
	}
	if s := res.String(); !strings.Contains(s, "baseline") || !strings.Contains(s, "optimized mixed") {
		t.Error("summary missing a strategy line")
	}
}

// Fig. 4: double and mixed RDFs must agree closely after the full
// train-and-simulate pipeline.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs two MD trajectories")
	}
	res, err := Fig4(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range res.MaxDeviation {
		// Thermostatted toy trajectories with float32 math diverge over
		// time (chaotic dynamics), so the budget is the histogram-noise
		// scale, not machine epsilon.
		if d > 1.0 {
			t.Errorf("%s deviation %.3f too large", name, d)
		}
	}
	// Fig. 4's claim is that double and mixed precision produce the same
	// structure. Short Quick-scale trajectories leave histogram noise, so
	// the robust comparison is the normalized L1 distance between each
	// pair of curves: identical ensembles give a small value, structurally
	// different ones approach 1. Absolute water-likeness is limited by the
	// energy-only trainer substitution (see DESIGN.md).
	for _, name := range []string{"gOO", "gOH", "gHH"} {
		gd := res.CurvesDouble[name][1]
		gm := res.CurvesMixed[name][1]
		var num, den float64
		for i := range gd {
			num += math.Abs(gd[i] - gm[i])
			den += (gd[i] + gm[i]) / 2
		}
		if den == 0 {
			t.Fatalf("%s: empty curves", name)
		}
		if rel := num / den; rel > 0.5 {
			t.Errorf("%s normalized L1 distance %.2f between precisions (want << 1)", name, rel)
		}
	}
}

// Fig. 7: deformation must create hcp (stacking faults) while keeping a
// large fcc population.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an anneal + deformation trajectory")
	}
	res, err := Fig7(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalStrain < 0.08 || res.FinalStrain > 0.12 {
		t.Errorf("final strain %.3f, want ~0.10", res.FinalStrain)
	}
	if res.CensusBefore[analysis.FCC] == 0 {
		t.Error("no fcc atoms before deformation")
	}
	// Plastic damage must grow: the fcc population drops as the sample
	// deforms. At Quick-scale grain sizes (~2 nm) plasticity is mostly
	// grain-boundary mediated (the inverse Hall-Petch regime), so the
	// robust observable is fcc loss; explicit hcp stacking-fault growth
	// appears at the Full scale (see EXPERIMENTS.md).
	defects0 := res.CensusBefore[analysis.HCP] + res.CensusBefore[analysis.Other]
	defects1 := res.CensusAfter[analysis.HCP] + res.CensusAfter[analysis.Other]
	if res.CensusAfter[analysis.FCC] >= res.CensusBefore[analysis.FCC] || defects1 <= defects0 {
		t.Errorf("no plastic damage: fcc %d -> %d, defects %d -> %d",
			res.CensusBefore[analysis.FCC], res.CensusAfter[analysis.FCC], defects0, defects1)
	}
	t.Logf("census before: %v, after: %v", res.CensusBefore, res.CensusAfter)
	if len(res.Strain) != len(res.StressZZ) {
		t.Fatal("strain/stress length mismatch")
	}
}

// Table 1 must include the literature rows and one local measurement per
// strategy.
func TestTable1Shape(t *testing.T) {
	res, err := Table1(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Published) != 8 || len(res.ThisWork) != 2 || len(res.LocalRows) != 3 {
		t.Fatalf("row counts %d/%d/%d", len(res.Published), len(res.ThisWork), len(res.LocalRows))
	}
	for i, want := range []string{"baseline strategy", "optimized double", "optimized mixed"} {
		if row := res.LocalRows[i]; !strings.Contains(row.Work, want) || row.TtS <= 0 {
			t.Errorf("local row %d: %q with TtS %.2e, want a measured %s row", i, row.Work, row.TtS, want)
		}
	}
	if !strings.Contains(res.String(), "Qbox") {
		t.Fatal("table text missing literature rows")
	}
}

// The scaling tables must render and local scaling must conserve work.
func TestScalingTables(t *testing.T) {
	if s := Fig5Table(); !strings.Contains(s, "4560") {
		t.Fatal("Fig5 table missing full-machine row")
	}
	if s := Fig6Table(); !strings.Contains(s, "PFLOPS") {
		t.Fatal("Fig6 table malformed")
	}
	if s := Table4Text(); !strings.Contains(s, "27360") {
		t.Fatal("Table4 missing last row")
	}
	res, err := LocalScaling(Quick, 10, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Messages != 0 && res.Rows[0].Ranks == 1 {
		// Rank 1 exchanges only with itself (periodic images).
		t.Logf("1-rank messages: %d (self-images)", res.Rows[0].Messages)
	}
	if res.Rows[1].Messages <= res.Rows[0].Messages {
		t.Error("2 ranks should exchange more messages than 1")
	}
}

func TestSetupShape(t *testing.T) {
	txt, res, err := SetupText(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "broadcast") {
		t.Fatal("setup text malformed")
	}
	if res.Ranks != 3 {
		t.Fatalf("ranks = %d", res.Ranks)
	}
}
