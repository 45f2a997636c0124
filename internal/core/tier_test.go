package core

import (
	"fmt"
	"math"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// Kernel-tier attribution, as a count of the GEMM FLOPs each
// internal/tensor tier served in one evaluation. The rule: on an active SIMD
// family every GEMM with k >= 1 and n >= 1 runs on that family's kernels —
// the strips or the NT dot tile — whatever its width or depth, so the
// optimized strategies serve no naive FLOP; under the generic family (the
// purego contract) every FLOP is naive. Tier choice reads the layer and
// never the row count, so the tallies are a function of the atom count
// alone.
func TestKernelTierAttribution(t *testing.T) {
	t.Run("chunk=100", func(t *testing.T) { testCopperTierAttribution(t, 100) })
	t.Run("chunk=256", func(t *testing.T) { testCopperTierAttribution(t, 256) })
	t.Run("quickwater", testQuickWaterTierAttribution)
}

// testCopperTierAttribution evaluates 256 copper atoms at the paper's
// network geometry (embedding 25-50-100, M_axis 16, fitting
// 1600-240-240-240-1) on the compressed strategy at a ChunkSize of
// chunkSize: four chunks of 64 rows at 100, one at 256. Every dense GEMM
// of that step belongs to the fitting net — the embedding nets are
// tabulated, the descriptor contractions fused and the descriptor products
// register loops — so the split is exact: the strips serve every forward
// pass, the 1600-deep first layer's in K panels and the one-column head's
// included, and the head's depth-1 backward (an outer product); the dot
// tile serves the other three backward passes.
func testCopperTierAttribution(t *testing.T, chunkSize int) {
	cfg := CopperConfig()
	// Paper nets, smaller neighbourhood: 256 atoms fit the minimum-image
	// box.
	cfg.Rcut, cfg.RcutSmth, cfg.Skin, cfg.Sel = 5.0, 2.0, 1.0, []int{110}
	cfg.ChunkSize = chunkSize
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := latticeSystem(t, false, &cfg)
	natoms := int64(len(types))
	// GEMM FLOPs per atom by the tier a SIMD family serves them on.
	var strip, dot int64
	for _, l := range m.Fit[0].Layers {
		strip += int64(2*l.In()*l.Out() + l.Out())
		if l.Out() == 1 {
			strip += int64(2 * l.In())
		} else {
			dot += int64(2 * l.In() * l.Out())
		}
	}
	want := map[cpufeat.Family][3]int64{
		cpufeat.Generic: {0, 0, natoms * (strip + dot)},
		cpufeat.AVX2:    {natoms * strip, natoms * dot, 0},
		cpufeat.AVX512:  {natoms * strip, natoms * dot, 0},
	}
	forEachFamily(t, func(t *testing.T) {
		ev := mustEvaluator[float32](t, m, StrategyCompressed)
		if got, fam := tierFLOPs(t, ev, pos, types, list, box), cpufeat.Active(); got != want[fam] {
			t.Errorf("strip / dot / naive served %v GEMM FLOPs, want %v", got, want[fam])
		}
	})
}

// testQuickWaterTierAttribution evaluates 192 water atoms on the quick-water
// nets (the tiny config at rc 4 and sel {12, 24}: embedding 4-8-16, fitting
// 24-24-24-1), under Batched and PerAtom in both precisions. Their narrow
// layers — the 1→4 embedding input, the 8→4 and 4→1 backward passes, the
// 24→1 head — are narrower than every column cover or shallower than the
// dot tile's lanes. A SIMD family serves all of the generic family's FLOPs
// and none of them naive.
func testQuickWaterTierAttribution(t *testing.T) {
	cfg := TinyConfig(2)
	cfg.Sel = []int{12, 24}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := latticeSystem(t, true, &cfg)
	for _, perAtom := range []bool{false, true} {
		strat := StrategyBatched
		if perAtom {
			strat = StrategyPerAtom
		}
		for _, single := range []bool{false, true} {
			name := fmt.Sprintf("peratom=%v/f32=%v", perAtom, single)
			t.Run(name, func(t *testing.T) {
				var total int64
				forEachFamily(t, func(t *testing.T) {
					var got [3]int64
					if single {
						got = tierFLOPs(t, mustEvaluator[float32](t, m, strat), pos, types, list, box)
					} else {
						got = tierFLOPs(t, mustEvaluator[float64](t, m, strat), pos, types, list, box)
					}
					if cpufeat.Active() == cpufeat.Generic {
						if got[0] != 0 || got[1] != 0 || got[2] == 0 {
							t.Fatalf("strip / dot / naive served %v GEMM FLOPs, want all naive", got)
						}
						total = got[2]
						return
					}
					if got[2] != 0 || (total != 0 && got[0]+got[1] != total) {
						t.Errorf("strip / dot / naive served %v GEMM FLOPs, want none naive of %d", got, total)
					}
				})
			})
		}
	}
}

// tierFLOPs runs one evaluation and returns the strip, dot and naive GEMM
// FLOPs it served.
func tierFLOPs[T tensor.Float](t *testing.T, ev *Evaluator[T], pos []float64, types []int, list *neighbor.List, box *neighbor.Box) [3]int64 {
	t.Helper()
	ctr := perf.NewCounter()
	ev.Counter = ctr
	var out Result
	if err := ev.Compute(pos, types, len(types), list, box, &out); err != nil {
		t.Fatal(err)
	}
	return [3]int64{ctr.TierFLOPs(perf.TierStrip), ctr.TierFLOPs(perf.TierDot), ctr.TierFLOPs(perf.TierNaive)}
}

// An atom's bits are a function of the frame and the model, not of how the
// frame is cut into chunks: tier choice reads the layer, never the row
// count, and a row's path through every tier depends on no other row of its
// call. One water and one copper frame at the paper's nets (a smaller
// neighbourhood, so 192 and 256 atoms fit the minimum-image box), both
// precisions, both fused strategies, ChunkSize 16, 32, 100 and 256 — chunks
// of 16 to 256 rows — at Workers 1 and 2: per-atom energies, forces and virial
// bitwise equal. The total energy sums chunk energies in chunk order, so it
// is not part of the claim.
func TestChunkSizeBitIdentical(t *testing.T) {
	water := WaterConfig()
	water.Rcut, water.Skin = 5.0, 1.0
	copper := CopperConfig()
	copper.Rcut, copper.Skin, copper.Sel = 5.0, 1.0, []int{110}
	for _, sys := range []struct {
		name  string
		water bool
		cfg   Config
	}{{"water", true, water}, {"copper", false, copper}} {
		m, err := New(sys.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
			t.Fatal(err)
		}
		pos, types, list, box := latticeSystem(t, sys.water, &sys.cfg)
		for _, prec := range []Precision{Double, Mixed} {
			for _, strat := range []Strategy{StrategyBatched, StrategyCompressed} {
				t.Run(fmt.Sprintf("%s/%v/%v", sys.name, prec, strat), func(t *testing.T) {
					var ref Result
					for _, chunk := range []int{256, 100, 32, 16} {
						for _, workers := range []int{1, 2} {
							mv := *m
							mv.Cfg.ChunkSize = chunk
							e, err := NewEngine(&mv, Plan{Precision: prec, Strategy: strat, Workers: workers, MaxConcurrency: 1})
							if err != nil {
								t.Fatal(err)
							}
							c, err := e.newComputer()
							if err != nil {
								t.Fatal(err)
							}
							var out Result
							if err := c.Compute(pos, types, len(types), list, box, &out); err != nil {
								t.Fatal(err)
							}
							if ref.Force == nil {
								ref = out
								continue
							}
							label := fmt.Sprintf("ChunkSize %d workers=%d vs ChunkSize 256 workers=1", chunk, workers)
							for i, e := range ref.AtomEnergy {
								if math.Float64bits(out.AtomEnergy[i]) != math.Float64bits(e) {
									t.Fatalf("%s: atomEnergy[%d] = %.17g, want %.17g", label, i, out.AtomEnergy[i], e)
								}
							}
							for i, f := range ref.Force {
								if math.Float64bits(out.Force[i]) != math.Float64bits(f) {
									t.Fatalf("%s: force[%d] = %.17g, want %.17g", label, i, out.Force[i], f)
								}
							}
							if out.Virial != ref.Virial {
								t.Fatalf("%s: virial %v, want %v", label, out.Virial, ref.Virial)
							}
						}
					}
				})
			}
		}
	}
}
