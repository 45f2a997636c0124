package core

import (
	"fmt"
	"math"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor/cpufeat"
)

// Kernel-family attribution, as a count: which internal/tensor tier served
// the GEMM FLOPs of one copper evaluation at the paper's network geometry
// (embedding 25-50-100, M_axis 16, fitting 1600-240-240-240-1). On the
// compressed strategy every dense GEMM of the step belongs to the fitting
// net — the embedding nets are tabulated, the descriptor contractions
// fused and the descriptor products register loops — so the tier tallies
// are the fitting net's alone.
//
// On an AVX family the strips serve the forward pass of all three tanh
// layers, the 1600-deep first one included, and the dot tile their three
// backward passes. The 240 -> 1 head runs naive both ways: one output
// column is below every strip width, and its backward has depth 1. Tier
// choice reads the layer and never the row count, so the tallies are a
// function of the atom count alone — the same at a ChunkSize of 100 (four
// chunks of 64 rows) as at 256 (one chunk). Under the generic family — the
// purego contract — every FLOP is naive.
func TestKernelTierAttribution(t *testing.T) {
	t.Run("chunk=100", func(t *testing.T) { testKernelTierAttribution(t, 100) })
	t.Run("chunk=256", func(t *testing.T) { testKernelTierAttribution(t, 256) })
}

// testKernelTierAttribution evaluates 256 copper atoms at a ChunkSize of
// chunkSize.
func testKernelTierAttribution(t *testing.T, chunkSize int) {
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
	// GEMM FLOPs per atom by the tier an AVX family serves them on.
	var strip, dot, naive int64
	for _, l := range m.Fit[0].Layers {
		fwd, bwd := int64(2*l.In()*l.Out()+l.Out()), int64(2*l.In()*l.Out())
		if l.Out() == 1 {
			naive += fwd + bwd
		} else {
			strip += fwd
			dot += bwd
		}
	}
	want := map[cpufeat.Family][3]int64{
		cpufeat.Generic: {0, 0, natoms * (strip + dot + naive)},
		cpufeat.AVX2:    {natoms * strip, natoms * dot, natoms * naive},
		cpufeat.AVX512:  {natoms * strip, natoms * dot, natoms * naive},
	}

	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range []cpufeat.Family{cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512} {
		if !cpufeat.Available(fam) {
			continue
		}
		t.Run(fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator[float32](m)
			if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
				t.Fatal(err)
			}
			ctr := perf.NewCounter()
			ev.Counter = ctr
			var out Result
			if err := ev.Compute(pos, types, len(types), list, box, &out); err != nil {
				t.Fatal(err)
			}
			got := [3]int64{ctr.TierFLOPs(perf.TierStrip), ctr.TierFLOPs(perf.TierDot), ctr.TierFLOPs(perf.TierNaive)}
			if got != want[fam] {
				t.Errorf("strip / dot / naive served %v GEMM FLOPs, want %v", got, want[fam])
			}
		})
	}
}

// An atom's bits are a function of the frame and the model, not of how the
// frame is cut into chunks: tier choice reads the layer, never the row
// count, and a row's path through every tier depends on no other row of its
// call. One water and one copper frame at the paper's nets (a smaller
// neighbourhood, so 192 and 256 atoms fit the minimum-image box), both
// precisions, both fused strategies, ChunkSize 16, 100 and 256 — chunks of
// 16 to 256 rows — at Workers 1 and 2: per-atom energies, forces and virial
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
					for _, chunk := range []int{256, 100, 16} {
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
