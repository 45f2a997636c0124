package descriptor

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

func TestSmoothRegions(t *testing.T) {
	const rmin, rmax = 2.0, 6.0
	// Below rmin: exactly 1/r.
	s, ds := Smooth(1.5, rmin, rmax)
	if math.Abs(s-1/1.5) > 1e-15 || math.Abs(ds+1/(1.5*1.5)) > 1e-15 {
		t.Fatalf("inner region: s=%g ds=%g", s, ds)
	}
	// At and beyond rmax: zero.
	for _, r := range []float64{6.0, 7.5, 100} {
		if s, ds := Smooth(r, rmin, rmax); s != 0 || ds != 0 {
			t.Fatalf("outer region r=%g: s=%g ds=%g", r, s, ds)
		}
	}
	// Non-positive r is guarded.
	if s, _ := Smooth(0, rmin, rmax); s != 0 {
		t.Fatal("r=0 must give 0")
	}
}

func TestSmoothContinuity(t *testing.T) {
	const rmin, rmax = 2.0, 6.0
	const h = 1e-9
	// C0 and C1 continuity at both region boundaries.
	for _, r := range []float64{rmin, rmax} {
		sm, _ := Smooth(r-h, rmin, rmax)
		sp, _ := Smooth(r+h, rmin, rmax)
		if math.Abs(sm-sp) > 1e-7 {
			t.Fatalf("s discontinuous at %g: %g vs %g", r, sm, sp)
		}
		_, dm := Smooth(r-h, rmin, rmax)
		_, dp := Smooth(r+h, rmin, rmax)
		if math.Abs(dm-dp) > 1e-6 {
			t.Fatalf("ds discontinuous at %g: %g vs %g", r, dm, dp)
		}
	}
}

func TestSmoothDerivativeFiniteDiff(t *testing.T) {
	const rmin, rmax = 2.0, 6.0
	const h = 1e-6
	for r := 0.5; r < 6.5; r += 0.0913 {
		if math.Abs(r-rmin) < 2*h || math.Abs(r-rmax) < 2*h {
			continue
		}
		sp, _ := Smooth(r+h, rmin, rmax)
		sm, _ := Smooth(r-h, rmin, rmax)
		want := (sp - sm) / (2 * h)
		_, ds := Smooth(r, rmin, rmax)
		if math.Abs(ds-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("ds(%g) = %g, finite diff %g", r, ds, want)
		}
	}
}

// buildTestSystem places n atoms randomly in a box and returns a raw
// neighbor list.
func buildTestSystem(t *testing.T, seed int64, n int, cfg Config, box *neighbor.Box) ([]float64, []int, *neighbor.List) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = rng.Float64() * box.L[k]
		}
		types[i] = rng.Intn(len(cfg.Sel))
	}
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: 1.0, Sel: cfg.Sel}, pos, types, n, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pos, types, list
}

var testCfg = Config{Rcut: 4.0, RcutSmth: 3.0, Sel: []int{24, 24}}

// The optimized Environment operator must reproduce the baseline exactly.
func TestEnvironmentMatchesBaseline(t *testing.T) {
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	pos, types, list := buildTestSystem(t, 1, 120, testCfg, box)
	var sc Scratch
	opt, err := sc.Environment(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EnvironmentBaseline(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	requireBaselineRows(t, "optimized vs baseline", opt, base)
}

// checkCountInvariant asserts what the ragged layout promises for every
// (atom, section) k: Off is a prefix sum from 0 that R and Geo fill
// exactly; the section's n = Off[k+1]-Off[k] rows are the first n
// formatted neighbors, n <= Sel; its last row is non-zero (n is the
// tightest bound); every row is either filled (s'(r) < 0 in Geo) or zero
// in both R and Geo; and every formatted neighbor past n is outside the
// cutoff or coincident with the center, so no real row was left out.
func checkCountInvariant(t testing.TB, label string, cfg Config, pos []float64, box *neighbor.Box, env *EnvOut) {
	t.Helper()
	nt := len(cfg.Sel)
	if len(env.Off) != env.Nloc*nt+1 || env.Off[0] != 0 {
		t.Fatalf("%s: %d offsets from %v for %d atoms x %d sections", label, len(env.Off), env.Off[:min(1, len(env.Off))], env.Nloc, nt)
	}
	if rows := env.Off[len(env.Off)-1]; len(env.R) != 4*rows || len(env.Geo) != 4*rows {
		t.Fatalf("%s: %d rows, len(R) %d, len(Geo) %d", label, rows, len(env.R), len(env.Geo))
	}
	zero := func(v []float64) bool {
		for _, x := range v {
			if x != 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < env.Nloc; i++ {
		for tj := 0; tj < nt; tj++ {
			k := i*nt + tj
			lo, n := env.Off[k], env.Off[k+1]-env.Off[k]
			sec := env.Fmt.Section(i, tj)
			if n < 0 || n > len(sec) || len(sec) > cfg.Sel[tj] {
				t.Fatalf("%s atom %d section %d: %d rows of %d formatted, sel %d", label, i, tj, n, len(sec), cfg.Sel[tj])
			}
			for x := lo; x < lo+n; x++ {
				r, g := env.R[4*x:4*x+4], env.Geo[4*x:4*x+4]
				if filled := g[3] < 0; !filled && (!zero(r) || !zero(g)) {
					t.Fatalf("%s atom %d section %d: row %d is neither filled nor zero", label, i, tj, x-lo)
				}
			}
			if n > 0 && zero(env.R[4*(lo+n-1):4*(lo+n)]) {
				t.Fatalf("%s atom %d section %d: last of %d rows is zero", label, i, tj, n)
			}
			for _, j := range sec[n:] {
				if rr := vecNorm(neighbor.Displacement(pos, i, int(j), box)); rr < cfg.Rcut && rr != 0 {
					t.Fatalf("%s atom %d section %d: neighbor %d at r = %g < rc has no row", label, i, tj, j, rr)
				}
			}
		}
	}
}

// TestEnvironmentCountInvariant checks the row offsets of both operators
// over the shapes that stress them: the paper's two systems, a list
// carrying skin entries (in the list, outside the cutoff), a section that
// overflows sel, an empty section, and a coincident pair (r = 0: its row
// stays zero in front of real neighbors).
func TestEnvironmentCountInvariant(t *testing.T) {
	type system struct {
		name  string
		cfg   Config
		skin  float64
		pos   []float64
		types []int
		box   *neighbor.Box
		// check inspects the optimized output for the feature the case
		// exists for.
		check func(t *testing.T, env *EnvOut)
	}
	water := lattice.Water(3, 3, 3, lattice.WaterSpacing, 7)
	copper := lattice.FCC(4, 4, 4, 3.615)
	lattice.Perturb(copper, 0.05, 3)
	skinBox := &neighbor.Box{L: [3]float64{14, 14, 14}}
	skinPos, skinTypes, _ := buildTestSystem(t, 11, 150, testCfg, skinBox)
	open := &neighbor.Box{L: [3]float64{40, 40, 40}}
	systems := []system{
		{name: "water", cfg: Config{Rcut: 4.5, RcutSmth: 0.5, Sel: []int{16, 32}}, skin: 0, pos: water.Pos, types: water.Types, box: &water.Box},
		{name: "copper", cfg: Config{Rcut: 5.0, RcutSmth: 2.0, Sel: []int{80}}, skin: 1.0, pos: copper.Pos, types: copper.Types, box: &copper.Box},
		{name: "skin", cfg: testCfg, skin: 1.0, pos: skinPos, types: skinTypes, box: skinBox,
			check: func(t *testing.T, env *EnvOut) {
				// Some formatted neighbor must sit beyond its section's rows.
				nt := len(testCfg.Sel)
				for i := 0; i < env.Nloc; i++ {
					for tj := 0; tj < nt; tj++ {
						if len(env.Fmt.Section(i, tj)) > env.Off[i*nt+tj+1]-env.Off[i*nt+tj] {
							return
						}
					}
				}
				t.Fatal("no skin entry beyond a section's rows: the case does not exercise what it is for")
			}},
		{name: "overflow", cfg: Config{Rcut: 4.0, RcutSmth: 3.0, Sel: []int{3, 3}}, skin: 0, pos: skinPos, types: skinTypes, box: skinBox,
			check: func(t *testing.T, env *EnvOut) {
				if env.Fmt.Overflow == 0 {
					t.Fatal("no section overflowed")
				}
			}},
		{name: "empty-section", cfg: Config{Rcut: 4.0, RcutSmth: 3.0, Sel: []int{6, 6}}, skin: 0,
			pos: []float64{10, 10, 10, 12, 10, 10, 10, 12.5, 10}, types: []int{0, 0, 0}, box: open,
			check: func(t *testing.T, env *EnvOut) {
				for i := 0; i < env.Nloc; i++ {
					if n0, n1 := env.Off[i*2+1]-env.Off[i*2], env.Off[i*2+2]-env.Off[i*2+1]; n0 != 2 || n1 != 0 {
						t.Fatalf("atom %d: rows %d and %d, want 2 and 0", i, n0, n1)
					}
				}
			}},
		{name: "coincident", cfg: Config{Rcut: 4.0, RcutSmth: 3.0, Sel: []int{6}}, skin: 0,
			pos: []float64{10, 10, 10, 10, 10, 10, 12, 10, 10}, types: []int{0, 0, 0}, box: open,
			check: func(t *testing.T, env *EnvOut) {
				// Atom 0: the coincident atom 1 sorts first and keeps a
				// zeroed row, atom 2 fills row 1 — the section has both.
				if env.Off[1] != 2 || env.R[0] != 0 || env.R[4] == 0 {
					t.Fatalf("atom 0: %d rows, s of rows 0/1 = %g/%g, want 2, 0, non-zero", env.Off[1], env.R[0], env.R[4])
				}
			}},
	}
	for _, sys := range systems {
		n := len(sys.types)
		list, err := neighbor.Build(neighbor.Spec{Rcut: sys.cfg.Rcut, Skin: sys.skin, Sel: sys.cfg.Sel}, sys.pos, sys.types, n, sys.box, 1)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		var sc Scratch
		opt, err := sc.Environment(nil, sys.cfg, sys.pos, sys.types, list, sys.box)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		checkCountInvariant(t, sys.name+"/optimized", sys.cfg, sys.pos, sys.box, opt)
		if sys.check != nil {
			sys.check(t, opt)
		}
		base, err := EnvironmentBaseline(nil, sys.cfg, sys.pos, sys.types, list, sys.box)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		checkCountInvariant(t, sys.name+"/baseline", sys.cfg, sys.pos, sys.box, base)
		// Lattice ties below the key format's 1e-8 A resolution may order
		// a section differently; its row count may not differ.
		if !slices.Equal(opt.Off, base.Off) {
			t.Fatalf("%s: Off optimized %v, baseline %v", sys.name, opt.Off, base.Off)
		}
	}
}

// Hand-checked environment row for a two-atom system.
func TestEnvironmentRowValues(t *testing.T) {
	cfg := Config{Rcut: 4.0, RcutSmth: 3.0, Sel: []int{4}}
	pos := []float64{0, 0, 0, 2, 0, 0} // neighbor at distance 2 along x
	types := []int{0, 0}
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}, pos, types, 2, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	env, err := sc.Environment(nil, cfg, pos, types, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Atom 0, slot 0: s = 1/2 (inside RcutSmth), row = (1/2, 1/4*2, 0, 0).
	r := env.R[:4]
	want := []float64{0.5, 0.5, 0, 0}
	for c := range want {
		if math.Abs(r[c]-want[c]) > 1e-15 {
			t.Fatalf("R[0][%d] = %g, want %g", c, r[c], want[c])
		}
	}
	// Atom 1 sees the displacement reversed.
	r1 := env.R[env.Off[1]*4 : env.Off[1]*4+4]
	want1 := []float64{0.5, -0.5, 0, 0}
	for c := range want1 {
		if math.Abs(r1[c]-want1[c]) > 1e-15 {
			t.Fatalf("R[1][%d] = %g, want %g", c, r1[c], want1[c])
		}
	}
	// One row per atom and nothing padded to sel.
	if !slices.Equal(env.Off, []int{0, 1, 2}) || len(env.R) != 8 {
		t.Fatalf("offsets %v, %d values of R, want [0 1 2] and 8", env.Off, len(env.R))
	}
}

// The Jacobian rebuilt from each slot's geometry row must be the true
// derivative of R with respect to atom positions.
func TestEnvironmentDerivativeFiniteDiff(t *testing.T) {
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	pos, types, list := buildTestSystem(t, 2, 40, testCfg, box)
	var sc Scratch
	env, err := sc.Environment(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot because scratch is reused.
	R0 := append([]float64(nil), env.R...)
	DR0 := make([]float64, len(env.R)*3)
	for x := 0; x < len(env.R)/4; x++ {
		slotJacobian(env.R[4*x], env.Geo[4*x:4*x+4], DR0[12*x:12*x+12])
	}
	nt := len(testCfg.Sel)
	off := slices.Clone(env.Off)
	sections := make([][]int32, env.Nloc*nt)
	for k := range sections {
		sections[k] = slices.Clone(env.Fmt.Section(k/nt, k%nt))
	}

	const h = 1e-7
	// Perturb the position of neighbor atoms and check dR/dd against DR0.
	// Moving atom j changes d = r_j - r_i by the same amount, so
	// dR[i,k,c]/dpos_j,a = DR0[i,k,c,a] for the row holding j.
	for sk := 0; sk < 8*nt; sk++ { // the sections of a sample of center atoms
		i, tj := sk/nt, sk%nt
		for k, j32 := range sections[sk][:off[sk+1]-off[sk]] {
			j := int(j32)
			if j == i {
				continue
			}
			x := off[sk] + k
			for a := 0; a < 3; a++ {
				orig := pos[3*j+a]
				pos[3*j+a] = orig + h
				var sc2 Scratch
				envP, err := sc2.Environment(nil, testCfg, pos, types, list, box)
				if err != nil {
					t.Fatal(err)
				}
				// The slot ordering can in principle change under
				// perturbation; skip those rare cases.
				if sec := envP.Fmt.Section(i, tj); k >= len(sec) || sec[k] != j32 {
					pos[3*j+a] = orig
					continue
				}
				xP := envP.Off[sk] + k
				for c := 0; c < 4; c++ {
					fd := (envP.R[xP*4+c] - R0[x*4+c]) / h
					an := DR0[x*12+c*3+a]
					if math.Abs(fd-an) > 1e-5*(1+math.Abs(an)) {
						t.Fatalf("atom %d slot %d comp %d dir %d: analytic %g, finite diff %g", i, k, c, a, an, fd)
					}
				}
				pos[3*j+a] = orig
			}
		}
	}
}

// Newton's third law: with any net gradient, ProdForce must produce zero
// total force when every pair is seen from both sides, and the optimized
// and baseline operators must agree exactly.
func TestProdForceMatchesBaselineAndConserves(t *testing.T) {
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	pos, types, list := buildTestSystem(t, 3, 80, testCfg, box)
	var sc Scratch
	env, err := sc.Environment(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	nd := make([]float64, len(env.R))
	for i := range nd {
		nd[i] = rng.NormFloat64()
	}
	force := make([]float64, 3*80)
	ProdForce(nil, nd, env, force)
	base := ProdForceBaseline(nil, nd, env, 80)
	for i := range force {
		if math.Abs(force[i]-base[i]) > 1e-12 {
			t.Fatalf("force[%d]: optimized %g, baseline %g", i, force[i], base[i])
		}
	}
}

func TestProdVirialMatchesBaseline(t *testing.T) {
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	pos, types, list := buildTestSystem(t, 5, 80, testCfg, box)
	var sc Scratch
	env, err := sc.Environment(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	nd := make([]float64, len(env.R))
	for i := range nd {
		nd[i] = rng.NormFloat64()
	}
	w := ProdVirial(nil, nd, env)
	wb := ProdVirialBaseline(nil, nd, env)
	for i := range w {
		if math.Abs(w[i]-wb[i]) > 1e-10 {
			t.Fatalf("virial[%d]: optimized %g, baseline %g", i, w[i], wb[i])
		}
	}
}

// Environment with the scratch reused across calls must give the same
// answer as a fresh scratch (buffer reuse must not leak state).
func TestScratchReuse(t *testing.T) {
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	pos, types, list := buildTestSystem(t, 7, 60, testCfg, box)
	var sc Scratch
	if _, err := sc.Environment(nil, testCfg, pos, types, list, box); err != nil {
		t.Fatal(err)
	}
	// Move an atom a little and re-evaluate with the same scratch.
	pos[0] += 0.05
	again, err := sc.Environment(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := EnvironmentBaseline(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	requireBaselineRows(t, "scratch reuse", again, fresh)
}

func TestConvertR(t *testing.T) {
	// One atom, sections of 2 and 1 slots, one real row in the first: the
	// padded view puts it in slot 0 and zeros slots 1 and 2.
	env := &EnvOut{
		Nloc: 1,
		Fmt:  &neighbor.Formatted{Nloc: 1, Sel: []int{2, 1}},
		Off:  []int{0, 1, 1},
		R:    []float64{1.5, -2.25, 0.125, 3},
	}
	want := []float32{1.5, -2.25, 0.125, 3, 0, 0, 0, 0, 0, 0, 0, 0}
	stale := make([]float32, 12)
	for i := range stale {
		stale[i] = 7
	}
	for name, dst := range map[string][]float32{"nil": nil, "short": make([]float32, 2), "stale": stale} {
		if got := ConvertR(nil, env, dst); !slices.Equal(got, want) {
			t.Fatalf("ConvertR into %s dst = %v, want %v", name, got, want)
		}
	}
}

// A fresh Scratch allocates its rows once and at the size of the ragged
// layout: 64 bytes a real row (R~ and the geometry row, 4 doubles each)
// with Grow's headroom, plus the offsets, the formatter's section bounds
// and its index table (room for every list entry), the row scratch (grown
// to the longest raw row) and the page rounding of the three large
// buffers. Neither the stored Jacobian (152 bytes a slot) nor rows padded
// to sel fit under this bound.
func TestEnvironmentAllocationBound(t *testing.T) {
	water := lattice.Water(3, 3, 3, lattice.WaterSpacing, 7)
	copper := lattice.FCC(4, 4, 4, 3.615)
	for _, sys := range []struct {
		name string
		cfg  Config
		skin float64
		cell *lattice.System
	}{
		{"water", Config{Rcut: 4.0, RcutSmth: 0.5, Sel: []int{16, 32}}, 0.6, water},
		{"copper", Config{Rcut: 5.0, RcutSmth: 2.0, Sel: []int{80}}, 1.0, copper},
	} {
		t.Run(sys.name, func(t *testing.T) {
			n := sys.cell.N()
			list, err := neighbor.Build(neighbor.Spec{Rcut: sys.cfg.Rcut, Skin: sys.skin, Sel: sys.cfg.Sel}, sys.cell.Pos, sys.cell.Types, n, &sys.cell.Box, 1)
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			var ws RowScratch
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			env := sc.Begin(sys.cfg, list)
			_, err = sc.Rows(&ws, sys.cfg, sys.cell.Pos, list, &sys.cell.Box, 0, n)
			rows := sc.Pack()
			sc.Fill(sys.cfg, sys.cell.Pos, &sys.cell.Box, 0, n)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			nt, entries := len(sys.cfg.Sel), 0
			for _, r := range list.Entries {
				entries += len(r)
			}
			row := list.MaxNeighbors() * (8 + 16) // row scratch: a distance and a 24-byte sort item a neighbor, inside the 4x below
			bound := uint64(64*(rows+rows/16) + 8*(n*nt+1) + 4*n*(nt+1) + 4*entries + 4*row + 3*8192)
			if padded := uint64(64 * n * sys.cfg.Stride()); bound >= padded {
				t.Fatalf("bound %d >= %d bytes of rows padded to sel: the case does not tell the layouts apart", bound, padded)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Fatalf("Begin + Rows + Pack + Fill allocated %d bytes, bound %d (%.1f bytes a row)", got, bound, float64(got)/float64(rows))
			}
			checkCountInvariant(t, sys.name, sys.cfg, sys.cell.Pos, &sys.cell.Box, env)
		})
	}
}
