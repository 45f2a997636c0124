package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// executableFamilies lists the kernel families the host can execute; the
// generic one is what -tags purego compiles in.
func executableFamilies() []cpufeat.Family {
	var fams []cpufeat.Family
	for _, fam := range []cpufeat.Family{cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512} {
		if cpufeat.Available(fam) {
			fams = append(fams, fam)
		}
	}
	return fams
}

// forEachFamily runs fn under every executable kernel family, restoring
// the active one afterwards.
func forEachFamily(t *testing.T, fn func(t *testing.T)) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range executableFamilies() {
		t.Run(fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}

// compareExactToOracle evaluates the first nloc atoms on the fused exact
// operator in precision T and on the per-atom double-precision oracle and
// asserts they agree within TestBatchedEvaluatorMatchesPerAtom's budgets:
// 1e-11 for float64, 2e-4 for float32.
func compareExactToOracle[T interface{ float32 | float64 }](t *testing.T, m *Model, cfg Config, nloc int, pos []float64, types []int, list *neighbor.List, box *neighbor.Box) {
	t.Helper()
	relTol := 1e-11
	var z T
	if _, ok := any(z).(float32); ok {
		relTol = 2e-4
	}
	mv := *m
	mv.Cfg = cfg
	evB := NewEvaluator[T](&mv)
	evR := NewEvaluator[float64](&mv)
	evR.SetPerAtomDescriptors(true)
	var rb, rr Result
	if err := evB.Compute(pos, types, nloc, list, box, &rb); err != nil {
		t.Fatal(err)
	}
	if err := evR.Compute(pos, types, nloc, list, box, &rr); err != nil {
		t.Fatal(err)
	}
	requireResultsClose(t, fmt.Sprintf("%T fused", z), &rb, &rr, relTol)
}

// sectionRows returns the real-row total of every (chunk, section) of the
// frame in chunk order, and whether some atom's rows straddle a tile edge.
func sectionRows(t *testing.T, cfg Config, nloc int, pos []float64, types []int, list *neighbor.List, box *neighbor.Box) (totals []int, straddle bool) {
	t.Helper()
	var sc descriptor.Scratch
	env, err := sc.Environment(nil, descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	nt := cfg.NumTypes()
	jobs, err := chunkJobs(nil, make([][]int, nt), types, nloc, cfg.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		for tj := 0; tj < nt; tj++ {
			rows := 0
			for _, atom := range j.atoms {
				n := int(env.Count[atom*nt+tj])
				if n > 0 && rows/embedTileRows != (rows+n-1)/embedTileRows {
					straddle = true
				}
				rows += n
			}
			totals = append(totals, rows)
		}
	}
	return totals, straddle
}

// denseCluster returns a perturbed FCC block (a = 2 A, 0.5 atoms/A^3)
// ordered by distance from its centre: evaluated without a box and with a
// small nloc, the locals are interior atoms with more neighbors inside the
// cutoff than any test sel (their lists overflow) and the rest are ghosts.
func denseCluster(cells int, seed int64) []float64 {
	sys := lattice.FCC(cells, cells, cells, 2.0)
	lattice.Perturb(sys, 0.1, seed)
	c := sys.Box.L[0] / 2
	r2 := func(i int) (d float64) {
		for _, x := range sys.Pos[3*i : 3*i+3] {
			d += (x - c) * (x - c)
		}
		return d
	}
	order := make([]int, sys.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return r2(order[i]) < r2(order[j]) })
	pos := make([]float64, 0, len(sys.Pos))
	for _, i := range order {
		pos = append(pos, sys.Pos[3*i:3*i+3]...)
	}
	return pos
}

// The edges of the fused exact operator, each against the per-atom double
// oracle in both precisions under every executable kernel family: a
// section with no real neighbor in any atom of any chunk; atoms whose rows
// straddle a tile edge; a section whose row total is exactly a multiple of
// the tile height, and one row more; overflowed lists (Count == sel);
// ghosts (nloc < nall, no box); chunk sizes 1, 7 and 256.
func TestFusedExactEdges(t *testing.T) {
	forEachFamily(t, func(t *testing.T) {
		t.Run("empty-section", func(t *testing.T) {
			cfg := batchTestConfig(true)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pos, types, _, box := testSystem(t, 31, 60, &cfg)
			clear(types) // every atom is type 0: section 1 is empty everywhere
			list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, pos, types, len(types), box, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 7, 256} {
				cfg.ChunkSize = chunk
				totals, _ := sectionRows(t, cfg, len(types), pos, types, list, box)
				for i := 1; i < len(totals); i += 2 {
					if totals[i] != 0 {
						t.Fatalf("section 1 of chunk %d has %d rows, want an empty section", i/2, totals[i])
					}
				}
				compareExactToOracle[float64](t, m, cfg, len(types), pos, types, list, box)
				compareExactToOracle[float32](t, m, cfg, len(types), pos, types, list, box)
			}
		})
		t.Run("straddle", func(t *testing.T) {
			cfg := batchTestConfig(false)
			cfg.ChunkSize = 256
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pos, types, list, box := testSystem(t, 32, 60, &cfg)
			if _, straddle := sectionRows(t, cfg, len(types), pos, types, list, box); !straddle {
				t.Fatal("no atom's rows straddle a tile edge; the case tests nothing")
			}
			compareExactToOracle[float64](t, m, cfg, len(types), pos, types, list, box)
			compareExactToOracle[float32](t, m, cfg, len(types), pos, types, list, box)
		})
		for _, extra := range []int{0, 1} {
			t.Run(fmt.Sprintf("overflow/sel=tile+%d", extra), func(t *testing.T) {
				cfg := batchTestConfig(false)
				cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 0.5
				cfg.Sel = []int{embedTileRows + extra}
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				const nloc = 20
				pos := denseCluster(8, 33)
				types := make([]int, len(pos)/3)
				list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, pos, types, nloc, nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunk := range []int{1, 7, 256} {
					cfg.ChunkSize = chunk
					totals, _ := sectionRows(t, cfg, nloc, pos, types, list, nil)
					for i, rows := range totals {
						if want := min(chunk, nloc-i*chunk) * cfg.Sel[0]; rows != want {
							t.Fatalf("chunk %d runs %d rows, want every list overflowed: %d", i, rows, want)
						}
					}
					compareExactToOracle[float64](t, m, cfg, nloc, pos, types, list, nil)
					compareExactToOracle[float32](t, m, cfg, nloc, pos, types, list, nil)
				}
			})
		}
	})
}

// Parameter gradients accumulate tile by tile through the one chunk body.
// They must agree with the per-atom path's — both analytic, so far inside
// the finite-difference budget of train.TestEnergyParameterGradient — and
// with a central difference on one embedding weight, on a system whose
// sections span several tiles.
func TestComputeWithGradsTiledMatchesPerAtom(t *testing.T) {
	cfg := batchTestConfig(false)
	cfg.ChunkSize = 256
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := testSystem(t, 34, 60, &cfg)
	if totals, _ := sectionRows(t, cfg, len(types), pos, types, list, box); totals[0] <= 2*embedTileRows {
		t.Fatalf("section runs %d rows, want more than two tiles", totals[0])
	}
	grads := func(perAtom bool) *ModelGrads {
		ev := NewEvaluator[float64](m)
		ev.SetPerAtomDescriptors(perAtom)
		g := NewModelGrads(m)
		var out Result
		if err := ev.ComputeWithGrads(pos, types, len(types), list, box, &out, g); err != nil {
			t.Fatal(err)
		}
		return g
	}
	tiled, ref := grads(false), grads(true)
	same := func(label string, got, want []float64) {
		t.Helper()
		for i := range want {
			if d := math.Abs(got[i] - want[i]); !(d <= 1e-10*(1+math.Abs(want[i]))) {
				t.Fatalf("%s[%d]: tiled %g vs per-atom %g", label, i, got[i], want[i])
			}
		}
	}
	for l := range ref.Embed[0][0].DW {
		same(fmt.Sprintf("embed.L%d.W", l), tiled.Embed[0][0].DW[l].Data, ref.Embed[0][0].DW[l].Data)
		same(fmt.Sprintf("embed.L%d.B", l), tiled.Embed[0][0].DB[l], ref.Embed[0][0].DB[l])
	}
	for l := range ref.Fit[0].DW {
		same(fmt.Sprintf("fit.L%d.W", l), tiled.Fit[0].DW[l].Data, ref.Fit[0].DW[l].Data)
		same(fmt.Sprintf("fit.L%d.B", l), tiled.Fit[0].DB[l], ref.Fit[0].DB[l])
	}

	ev := NewEvaluator[float64](m)
	energy := func() float64 {
		var out Result
		if err := ev.Compute(pos, types, len(types), list, box, &out); err != nil {
			t.Fatal(err)
		}
		return out.Energy
	}
	const h, idx = 1e-6, 3
	w := m.Embed[0][0].Layers[1].W.Data
	orig := w[idx]
	w[idx] = orig + h
	ep := energy()
	w[idx] = orig - h
	em := energy()
	w[idx] = orig
	want := (ep - em) / (2 * h)
	if got := tiled.Embed[0][0].DW[1].Data[idx]; math.Abs(got-want) > 2e-5*(1+math.Abs(want)) {
		t.Fatalf("embed.L1.W[%d]: analytic %g, central difference %g", idx, got, want)
	}
}

// A worker's arena demand is a closed form of the Config (arenaLen), so
// the slab allocated at construction already holds the first force call:
// nothing overflows to the heap and growArenas re-slabs nothing, on either
// fused strategy, for the test-sized and both paper-sized models.
func TestArenaSizedAtConstruction(t *testing.T) {
	small := lattice.Water(4, 4, 4, lattice.WaterSpacing, 7)
	water := lattice.Water(6, 6, 6, lattice.WaterSpacing, 7) // 18.6 A box >= 2*(6+2) A
	copper := lattice.FCC(5, 5, 5, 3.615)
	lattice.Perturb(copper, 0.05, 3)
	copperCfg := CopperConfig()
	copperCfg.Skin = 1.0 // 18.075 A box >= 2*(8+1) A
	tinyCfg := batchTestConfig(true)
	tinyCfg.ChunkSize = 256
	for _, tc := range []struct {
		name string
		cfg  Config
		sys  *lattice.System
	}{
		{"tiny", tinyCfg, small},
		{"water", WaterConfig(), water},
		{"copper", copperCfg, copper},
	} {
		for _, compressed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compressed=%v", tc.name, compressed), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Workers = 2
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, tc.sys.Pos, tc.sys.Types, tc.sys.N(), &tc.sys.Box, 1)
				if err != nil {
					t.Fatal(err)
				}
				ev := NewEvaluator[float32](m)
				if compressed {
					if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
						t.Fatal(err)
					}
				}
				before := ev.ArenaBytes()
				var out Result
				if err := ev.Compute(tc.sys.Pos, tc.sys.Types, tc.sys.N(), list, &tc.sys.Box, &out); err != nil {
					t.Fatal(err)
				}
				for w, a := range ev.arenas {
					if a.MaxPeak() > a.Cap() {
						t.Errorf("worker %d: the first Compute drew %d elements from a %d-element arena", w, a.MaxPeak(), a.Cap())
					}
				}
				if after := ev.ArenaBytes(); after != before {
					t.Errorf("arenas re-slabbed after the first Compute: %d -> %d bytes", before, after)
				}
			})
		}
	}
}

// The fused exact path keeps no embedding matrix: on the paper's water
// model at the benchmark's size (6x6x6 molecules, double precision, chunk
// 256) every worker's arena stays below 16 MB — the chunk's descriptors,
// the fitting traces, the per-atom accumulators and one row tile. The
// materialise-then-contract pipeline this replaced held 185 MB per worker
// for a 256-atom chunk's three layers of traces. Twin of
// TestCompressedArenaFootprint.
func TestBatchedArenaFootprint(t *testing.T) {
	cfg := WaterConfig()
	cfg.ChunkSize = 256
	cfg.Workers = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := lattice.Water(6, 6, 6, lattice.WaterSpacing, 1)
	n := cell.N()
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, cell.Pos, cell.Types, n, &cell.Box, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator[float64](m)
	var out Result
	for i := 0; i < 2; i++ {
		if err := ev.Compute(cell.Pos, cell.Types, n, list, &cell.Box, &out); err != nil {
			t.Fatal(err)
		}
	}
	const limit = 16 << 20
	for w, a := range ev.arenas {
		if got := a.Bytes(); got >= limit {
			t.Errorf("worker %d's arena holds %d bytes, want < %d", w, got, limit)
		}
	}
}

// materialisedChunk is the pipeline the fused operator replaced, kept as
// its differential reference: every section's embedding matrix stored for
// all sel slots of all the chunk's atoms (padding rows included), the
// contractions as plain double-precision loops over the stored matrices,
// one traced net pass forward and one backward per section. It returns
// the chunk energy and the network derivative rows (nloc x stride x 4).
func materialisedChunk(ev *Evaluator[float64], env *descriptor.EnvOut, rT []float64, ci int, atoms []int) (float64, []float64) {
	cfg := &ev.cfg
	stride, m, nt, nA := cfg.Stride(), cfg.M(), cfg.NumTypes(), len(atoms)
	ar := tensor.NewArena[float64](1 << 16)
	ws := &evalScratch[float64]{}

	row := func(a, tj, k int) []float64 {
		base := (atoms[a]*stride + env.Fmt.SelOff[tj] + k) * 4
		return rT[base : base+4]
	}
	traces := make([]*nn.Trace[float64], nt)
	items := make([]float64, nA*4*m)
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		sIn := tensor.NewMatrix[float64](nA*sel, 1)
		for a := 0; a < nA; a++ {
			for k := 0; k < sel; k++ {
				sIn.Data[a*sel+k] = row(a, tj, k)[0]
			}
		}
		traces[tj] = ev.embed[ci][tj].Forward(nil, tensor.Opts{}, ar, sIn, true)
		g := traces[tj].Out().Data
		for a := 0; a < nA; a++ {
			for k := 0; k < sel; k++ {
				r := row(a, tj, k)
				for c := 0; c < m; c++ {
					for j := 0; j < 4; j++ {
						items[(a*4+j)*m+c] += g[(a*sel+k)*m+c] * r[j]
					}
				}
			}
		}
	}
	chunkE := ev.fitChunk(nil, tensor.Opts{}, ws, ar, ci, atoms, items, make([]float64, env.Nloc))
	ndT := make([]float64, env.Nloc*stride*4)
	for tj := 0; tj < nt; tj++ {
		sel := cfg.Sel[tj]
		g := traces[tj].Out().Data
		dG := tensor.NewMatrix[float64](nA*sel, m)
		for a := 0; a < nA; a++ {
			for k := 0; k < sel; k++ {
				r := row(a, tj, k)
				base := (atoms[a]*stride + env.Fmt.SelOff[tj] + k) * 4
				for c := 0; c < m; c++ {
					for j := 0; j < 4; j++ {
						dt := items[(a*4+j)*m+c]
						dG.Data[(a*sel+k)*m+c] += r[j] * dt
						ndT[base+j] += g[(a*sel+k)*m+c] * dt
					}
				}
			}
		}
		ds := ev.embed[ci][tj].Backward(nil, tensor.Opts{}, ar, traces[tj], dG, nil).Data
		for a := 0; a < nA; a++ {
			for k := 0; k < sel; k++ {
				ndT[(atoms[a]*stride+env.Fmt.SelOff[tj]+k)*4] += ds[a*sel+k]
			}
		}
	}
	return chunkE, ndT
}

// fusedChunkCase is one synthetic chunk: a frame of nloc atoms whose every
// (atom, section) holds count real rows followed by the exact zeros the
// Environment operator guarantees.
type fusedChunkCase struct {
	cfg   Config
	m     *Model
	env   *descriptor.EnvOut
	r     []float64 // nloc x stride x 4
	atoms []int
}

func newFusedChunkCase(tb testing.TB, sel []int, nloc int, rng *rand.Rand) *fusedChunkCase {
	cfg := TinyConfig(len(sel))
	cfg.Sel = sel
	cfg.ChunkSize = nloc
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	stride := cfg.Stride()
	fc := &fusedChunkCase{cfg: cfg, m: m, r: make([]float64, nloc*stride*4)}
	fc.env = &descriptor.EnvOut{Nloc: nloc, Stride: stride, Fmt: &neighbor.Formatted{Nloc: nloc, Sel: sel, Stride: stride}, Count: make([]int32, nloc*len(sel))}
	fc.env.Fmt.SelOff = []int{0}
	for _, n := range sel {
		fc.env.Fmt.SelOff = append(fc.env.Fmt.SelOff, fc.env.Fmt.SelOff[len(fc.env.Fmt.SelOff)-1]+n)
	}
	for a := 0; a < nloc; a++ {
		fc.atoms = append(fc.atoms, a)
		for tj, n := range sel {
			// Mostly partial sections, sometimes empty, sometimes overflowed.
			count := rng.Intn(n + 1)
			switch rng.Intn(6) {
			case 0:
				count = 0
			case 1:
				count = n
			}
			fc.env.Count[a*len(sel)+tj] = int32(count)
			for k := 0; k < count; k++ {
				r := fc.r[(a*stride+fc.env.Fmt.SelOff[tj]+k)*4:]
				r[0] = 2 * rng.Float64()
				for j := 1; j < 4; j++ {
					r[j] = r[0] * rng.NormFloat64()
				}
			}
		}
	}
	return fc
}

// check runs the fused operator in precision T under the active family
// and compares chunk energy and network derivative with the materialised
// double-precision reference, norm-wise, wherever the reference is finite.
// Rows at and beyond an atom's count must be left exactly as they were.
func checkFusedChunk[T interface{ float32 | float64 }](t *testing.T, fc *fusedChunkCase, relTol float64) {
	t.Helper()
	refE, refNd := materialisedChunk(NewEvaluator[float64](fc.m), fc.env, fc.r, 0, fc.atoms)

	ev := NewEvaluator[T](fc.m)
	rT := make([]T, len(fc.r))
	for i, v := range fc.r {
		rT[i] = T(v)
	}
	const sentinel = 12345
	ndT := make([]T, len(fc.r))
	for i := range ndT {
		ndT[i] = sentinel
	}
	e := ev.evalChunk(nil, tensor.Opts{}, ev.scratch[0], ev.arenas[0], fc.env, rT, ndT, 0, fc.atoms, make([]float64, fc.env.Nloc))

	stride, nt := fc.cfg.Stride(), fc.cfg.NumTypes()
	var scale float64
	finite := !math.IsNaN(refE) && !math.IsInf(refE, 0)
	for _, v := range refNd {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		scale = max(scale, math.Abs(v))
	}
	for a := range fc.atoms {
		for tj, sel := range fc.cfg.Sel {
			count := int(fc.env.Count[a*nt+tj])
			for k := 0; k < sel; k++ {
				for j := 0; j < 4; j++ {
					i := (a*stride+fc.env.Fmt.SelOff[tj]+k)*4 + j
					switch {
					case k >= count:
						if ndT[i] != sentinel {
							t.Fatalf("atom %d section %d: slot %d >= count %d was written", a, tj, k, count)
						}
					case finite:
						if d := math.Abs(float64(ndT[i]) - refNd[i]); !(d <= relTol*(1+scale)) {
							t.Fatalf("atom %d section %d slot %d col %d: fused %g vs materialised %g (|diff| %g, scale %g)", a, tj, k, j, float64(ndT[i]), refNd[i], d, scale)
						}
					}
				}
			}
		}
	}
	if finite {
		if d := math.Abs(e - refE); !(d <= relTol*(1+math.Abs(refE))) {
			t.Fatalf("chunk energy: fused %g vs materialised %g", e, refE)
		}
	}
}

// FuzzFusedExact drives the exact path's fused operator with arbitrary
// section lengths, atom counts and real-neighbor counts — empty and
// overflowed sections, totals on and around tile edges — and one arbitrary
// s bit pattern (huge, denormal, infinite, NaN) planted among ordinary
// rows, under every kernel family the host can execute. The contract: no
// panic, nothing at or beyond a section's count read into the result or
// written, and agreement with the materialised reference wherever that
// stays finite. CI runs this for 30 s beside the fused-contraction fuzz.
func FuzzFusedExact(f *testing.F) {
	f.Add(int64(1), uint64(0), uint16(0), uint8(0))
	f.Add(int64(2), math.Float64bits(1.0), uint16(embedTileRows), uint8(1))
	f.Add(int64(3), math.Float64bits(-3.5), uint16(embedTileRows+1), uint8(2))
	f.Add(int64(4), math.Float64bits(math.NaN()), uint16(77), uint8(0))
	f.Add(int64(5), math.Float64bits(math.Inf(1)), uint16(300), uint8(1))
	f.Add(int64(6), math.Float64bits(5e-324), uint16(2*embedTileRows-1), uint8(2))
	f.Add(int64(7), math.Float64bits(1e300), uint16(9), uint8(0))

	fams := executableFamilies()
	f.Fuzz(func(t *testing.T, seed int64, sBits uint64, shape uint16, famSel uint8) {
		prev := cpufeat.Active()
		defer cpufeat.SetActive(prev)
		if _, err := cpufeat.SetActive(fams[int(famSel)%len(fams)]); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		// One or two sections of 1..embedTileRows+8 and 1..24 slots, 1..12
		// atoms: a few hundred rows, up to a dozen tiles.
		sel := []int{1 + int(shape)%(embedTileRows+8)}
		if shape&1 == 1 {
			sel = append(sel, 1+int(shape/2)%24)
		}
		fc := newFusedChunkCase(t, sel, 1+rng.Intn(12), rng)
		if a := rng.Intn(len(fc.atoms)); fc.env.Count[a*len(sel)] > 0 {
			k := rng.Intn(int(fc.env.Count[a*len(sel)]))
			fc.r[(a*fc.cfg.Stride()+k)*4] = math.Float64frombits(sBits)
		}
		checkFusedChunk[float64](t, fc, 1e-9)
		checkFusedChunk[float32](t, fc, 2e-3)
	})
}
