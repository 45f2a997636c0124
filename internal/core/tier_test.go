package core

import (
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/perf"
	"deepmd-go/internal/tensor/cpufeat"
)

// Kernel-family attribution, as a count: which internal/tensor tier served
// the GEMM FLOPs of one copper evaluation at the paper's network geometry
// (embedding 25-50-100, M_axis 16, fitting 1600-240-240-240-1). On the
// compressed strategy every dense GEMM of the step belongs to the fitting
// net — the embedding nets are tabulated and the descriptor contractions
// fused — so the tier tallies are the fitting net's, plus the three k = 4
// / k = 16 descriptor items that stay on the naive loops.
//
// On an AVX family the strips serve the forward pass of all three tanh
// layers, the 1600-deep first one included, and the dot tile all three
// backward passes; the packed engine serves none of them. All it can be
// handed is the 240 -> 1 head (one output column is below every strip
// width; 481 FLOPs a row, 0.03 % of the net), and only for a chunk tall
// enough to pass its blockedWorthIt cutoff of 137 rows: a type that fits one
// chunk of 256 can be, a chunk of a type the balanced cut (chunkJobs)
// splits at the default ChunkSize never is — the copper benchmark's 500
// atoms run as 128, 128, 128, 116 and hand the packed tier nothing (of the
// MD workloads only water's one 216-row oxygen chunk still does). Under
// the generic family — the purego contract — neither SIMD tier serves
// anything.
func TestKernelTierAttribution(t *testing.T) {
	// 256 atoms over a ChunkSize of 100: four chunks of 64 rows.
	t.Run("chunk=100", func(t *testing.T) { testKernelTierAttribution(t, 100, 0) })
	// One chunk of 256 rows.
	t.Run("chunk=256", func(t *testing.T) { testKernelTierAttribution(t, 256, 256) })
}

// testKernelTierAttribution evaluates 256 copper atoms at a ChunkSize of
// chunkSize; headRows is how many of them sit in chunks whose head GEMM
// the packed engine takes.
func testKernelTierAttribution(t *testing.T, chunkSize int, headRows int64) {
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
	var hidden, head int64 // forward GEMM+bias FLOPs per row
	for _, l := range m.Fit[0].Layers {
		f := int64(2*l.In()*l.Out() + l.Out())
		if l.Out() == 1 {
			head += f
		} else {
			hidden += f
		}
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
			strip, dot, packed := ctr.TierFLOPs(perf.TierStrip), ctr.TierFLOPs(perf.TierDot), ctr.TierFLOPs(perf.TierPacked)
			if fam == cpufeat.Generic {
				if strip != 0 || dot != 0 || packed == 0 {
					t.Fatalf("generic family: strip %d, dot %d, packed %d GEMM FLOPs; want 0, 0, > 0", strip, dot, packed)
				}
				return
			}
			if want := natoms * hidden; strip != want {
				t.Errorf("strip tier served %d FLOPs, want the three tanh layers' forward pass = %d", strip, want)
			}
			if want := headRows * head; packed != want {
				t.Errorf("packed tier served %d FLOPs, want %d: the 240->1 head of %d rows and none of the 1600->240 and 240->240 layers", packed, want, headRows)
			}
			if dot == 0 {
				t.Errorf("dot tile served no backward FLOPs")
			}
		})
	}
}
