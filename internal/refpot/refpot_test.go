package refpot

import (
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// forceFiniteDiff validates F = -dE/dx for a handful of coordinates.
// (The potential interface is labeler.go's md.Potential restatement.)
func forceFiniteDiff(t *testing.T, pot potential, pos []float64, types []int, box *neighbor.Box, spec neighbor.Spec, tol float64) {
	t.Helper()
	n := len(types)
	build := func() *neighbor.List {
		l, err := neighbor.Build(spec, pos, types, n, box, 1)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	var res core.Result
	if err := pot.Compute(pos, types, n, build(), box, &res); err != nil {
		t.Fatal(err)
	}
	force := append([]float64(nil), res.Force...)
	energy := func() float64 {
		var r core.Result
		if err := pot.Compute(pos, types, n, build(), box, &r); err != nil {
			t.Fatal(err)
		}
		return r.Energy
	}
	const h = 1e-6
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		i, a := rng.Intn(n), rng.Intn(3)
		orig := pos[3*i+a]
		pos[3*i+a] = orig + h
		ep := energy()
		pos[3*i+a] = orig - h
		em := energy()
		pos[3*i+a] = orig
		want := -(ep - em) / (2 * h)
		if math.Abs(force[3*i+a]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("force[%d,%d] = %g, -dE/dx = %g", i, a, force[3*i+a], want)
		}
	}
}

func TestLJDimer(t *testing.T) {
	lj := NewLennardJones(0.0103, 3.4, 8.0) // argon
	// At the minimum r = 2^(1/6) sigma the pair energy is -eps (+ shift).
	rmin := math.Pow(2, 1.0/6) * 3.4
	pos := []float64{0, 0, 0, rmin, 0, 0}
	types := []int{0, 0}
	list, err := neighbor.Build(neighbor.Spec{Rcut: 8, Sel: []int{4}}, pos, types, 2, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := lj.Compute(pos, types, 2, list, nil, &res); err != nil {
		t.Fatal(err)
	}
	shift := lj.shift(0.0103, 3.4)
	if math.Abs(res.Energy-(-0.0103-shift)) > 1e-12 {
		t.Fatalf("dimer energy %g, want %g", res.Energy, -0.0103-shift)
	}
	// Force at the minimum vanishes.
	for i := range res.Force {
		if math.Abs(res.Force[i]) > 1e-10 {
			t.Fatalf("force not zero at minimum: %v", res.Force)
		}
	}
}

func TestLJForceFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := &neighbor.Box{L: [3]float64{15, 15, 15}}
	n := 40
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := range types {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = rng.Float64() * 15
		}
	}
	lj := NewLennardJones(0.0103, 2.0, 6.0)
	forceFiniteDiff(t, lj, pos, types, box, neighbor.Spec{Rcut: 6, Skin: 0.5, Sel: []int{64}}, 1e-5)
}

func TestLJNewtonThirdLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	n := 30
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := range pos {
		pos[i] = rng.Float64() * 14
	}
	lj := NewLennardJones(0.01, 2.2, 6.0)
	list, err := neighbor.Build(neighbor.Spec{Rcut: 6, Sel: []int{64}}, pos, types, n, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := lj.Compute(pos, types, n, list, box, &res); err != nil {
		t.Fatal(err)
	}
	var sum [3]float64
	for i := 0; i < n; i++ {
		for a := 0; a < 3; a++ {
			sum[a] += res.Force[3*i+a]
		}
	}
	for a := 0; a < 3; a++ {
		if math.Abs(sum[a]) > 1e-10 {
			t.Fatalf("net force %v", sum)
		}
	}
}

func TestSuttonChenCohesiveEnergy(t *testing.T) {
	// Sutton-Chen Cu on the perfect FCC lattice should give a cohesive
	// energy near the experimental ~-3.5 eV/atom JUST from the published
	// parameterization (acceptance band generous: truncation effects).
	sc := NewSuttonChenCu()
	sys := lattice.FCC(5, 5, 5, lattice.CuLatticeConst)
	list, err := neighbor.Build(neighbor.Spec{Rcut: sc.Rcut, Skin: 0.3, Sel: []int{128}}, sys.Pos, sys.Types, sys.N(), &sys.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := sc.Compute(sys.Pos, sys.Types, sys.N(), list, &sys.Box, &res); err != nil {
		t.Fatal(err)
	}
	perAtom := res.Energy / float64(sys.N())
	if perAtom > -2.5 || perAtom < -4.5 {
		t.Fatalf("Cu cohesive energy %g eV/atom, want ~-3.5", perAtom)
	}
	// The perfect lattice is (nearly) an equilibrium: forces ~ 0.
	for i := range res.Force {
		if math.Abs(res.Force[i]) > 1e-8 {
			t.Fatalf("nonzero force %g on perfect lattice", res.Force[i])
		}
	}
}

func TestSuttonChenForceFiniteDiff(t *testing.T) {
	sc := NewSuttonChenCu()
	sc.Rcut = 5.0 // shorter cutoff keeps the test box small
	sys := lattice.FCC(3, 3, 3, lattice.CuLatticeConst)
	lattice.Perturb(sys, 0.15, 5)
	forceFiniteDiff(t, sc, sys.Pos, sys.Types, &sys.Box,
		neighbor.Spec{Rcut: sc.Rcut, Skin: 0.3, Sel: []int{128}}, 1e-5)
}

func TestSuttonChenRejectsGhostMode(t *testing.T) {
	sc := NewSuttonChenCu()
	pos := make([]float64, 9)
	types := make([]int, 3)
	list := &neighbor.List{Nloc: 2, Entries: make([][]int32, 2)}
	var res core.Result
	if err := sc.Compute(pos, types, 2, list, nil, &res); err == nil {
		t.Fatal("expected rejection of ghost-mode configuration")
	}
}

func TestToyWaterEquilibriumGeometry(t *testing.T) {
	tw := NewToyWater()
	// A single molecule at its rest geometry has zero intramolecular
	// energy and zero force.
	sys := lattice.Water(1, 1, 1, 20, 3) // big spacing: no intermolecular terms
	sys.Box = neighbor.Box{L: [3]float64{20, 20, 20}}
	list, err := neighbor.Build(neighbor.Spec{Rcut: tw.Rcut, Sel: []int{8, 8}}, sys.Pos, sys.Types, 3, &sys.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := tw.Compute(sys.Pos, sys.Types, 3, list, &sys.Box, &res); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy) > 1e-10 {
		t.Fatalf("rest molecule energy %g, want 0", res.Energy)
	}
	for i, f := range res.Force {
		if math.Abs(f) > 1e-9 {
			t.Fatalf("rest molecule force[%d] = %g", i, f)
		}
	}
}

func TestToyWaterForceFiniteDiff(t *testing.T) {
	tw := NewToyWater()
	sys := lattice.Water(4, 4, 4, lattice.WaterSpacing+0.1, 4) // box edge > 2*(rc+skin)
	lattice.Perturb(sys, 0.05, 6)
	forceFiniteDiff(t, tw, sys.Pos, sys.Types, &sys.Box,
		neighbor.Spec{Rcut: tw.Rcut, Skin: 0.2, Sel: []int{32, 64}}, 2e-5)
}

func TestToyWaterRejectsNonTriplets(t *testing.T) {
	tw := NewToyWater()
	pos := make([]float64, 12)
	types := []int{0, 1, 1, 0}
	box := &neighbor.Box{L: [3]float64{30, 30, 30}}
	list, err := neighbor.Build(neighbor.Spec{Rcut: 6, Sel: []int{8, 8}}, pos, types, 4, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := tw.Compute(pos, types, 4, list, box, &res); err == nil {
		t.Fatal("expected non-triplet rejection")
	}
}

// The LJ virial trace must match the strain derivative of the energy.
func TestLJVirialStrainDerivative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	n := 32
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := range pos {
		pos[i] = rng.Float64() * 14
	}
	lj := NewLennardJones(0.01, 2.5, 6.0)
	spec := neighbor.Spec{Rcut: 6, Skin: 0.3, Sel: []int{64}}
	list, err := neighbor.Build(spec, pos, types, n, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := lj.Compute(pos, types, n, list, box, &res); err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	energyScaled := func(eps float64) float64 {
		sp := make([]float64, len(pos))
		for i, v := range pos {
			sp[i] = v * (1 + eps)
		}
		sb := &neighbor.Box{L: [3]float64{14 * (1 + eps), 14 * (1 + eps), 14 * (1 + eps)}}
		sl, err := neighbor.Build(spec, sp, types, n, sb, 1)
		if err != nil {
			t.Fatal(err)
		}
		var r core.Result
		if err := lj.Compute(sp, types, n, sl, sb, &r); err != nil {
			t.Fatal(err)
		}
		return r.Energy
	}
	dE := (energyScaled(h) - energyScaled(-h)) / (2 * h)
	tr := res.Virial[0] + res.Virial[4] + res.Virial[8]
	if math.Abs(tr-(-dE)) > 1e-4*(1+math.Abs(dE)) {
		t.Fatalf("tr(W) = %g, -dE/deps = %g", tr, -dE)
	}
}

// The Labeler adapter must return exactly what a direct Compute over a
// freshly built list returns, copy the forces (no aliasing of its scratch
// across calls), and trim forces to the local atoms.
func TestLabelerMatchesDirectCompute(t *testing.T) {
	base := lattice.FCC(2, 2, 2, 4.2)
	lj := NewLennardJones(0.05, 2.6, 3.0)
	spec := neighbor.Spec{Rcut: 3.0, Skin: 0.5, Sel: []int{16}}
	lab := NewLabeler(lj, spec, 1)

	e, f, err := lab.Label(base.Pos, base.Types, &base.Box)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 3*base.N() {
		t.Fatalf("labeler returned %d force components for %d atoms", len(f), base.N())
	}
	list, err := neighbor.Build(spec, base.Pos, base.Types, base.N(), &base.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := lj.Compute(base.Pos, base.Types, base.N(), list, &base.Box, &res); err != nil {
		t.Fatal(err)
	}
	if e != res.Energy {
		t.Fatalf("labeler energy %g != direct %g", e, res.Energy)
	}
	for k := range f {
		if f[k] != res.Force[k] {
			t.Fatalf("labeler force[%d] %g != direct %g", k, f[k], res.Force[k])
		}
	}

	// A second label on a perturbed configuration must not overwrite the
	// first call's returned forces (copy semantics of the scratch Result).
	pos2 := append([]float64(nil), base.Pos...)
	for i := range pos2 {
		pos2[i] += 0.05
	}
	f0 := append([]float64(nil), f...)
	if _, _, err := lab.Label(pos2, base.Types, &base.Box); err != nil {
		t.Fatal(err)
	}
	for k := range f {
		if f[k] != f0[k] {
			t.Fatal("second Label call mutated the forces returned by the first")
		}
	}
}
