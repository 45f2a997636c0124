package analysis

import (
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// An ideal gas must give g(r) ~ 1 at all r.
func TestRDFIdealGas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := &neighbor.Box{L: [3]float64{20, 20, 20}}
	n := 800
	types := make([]int, n)
	rdf := NewRDF(0, 0, 6.0, 24)
	for snap := 0; snap < 5; snap++ {
		pos := make([]float64, 3*n)
		for i := range pos {
			pos[i] = rng.Float64() * 20
		}
		rdf.Accumulate(pos, types, box)
	}
	rs, g := rdf.Curve()
	for b := 4; b < len(g); b++ { // skip the noisiest small-r bins
		if math.Abs(g[b]-1) > 0.25 {
			t.Fatalf("ideal gas g(%.2f) = %.3f, want ~1", rs[b], g[b])
		}
	}
}

// A perfect FCC crystal's RDF must peak at the nearest-neighbor shell
// a/sqrt(2) and vanish below it.
func TestRDFCrystalPeaks(t *testing.T) {
	a := 4.0
	sys := lattice.FCC(4, 4, 4, a)
	rdf := NewRDF(0, 0, 5.0, 100)
	rdf.Accumulate(sys.Pos, sys.Types, &sys.Box)
	rs, g := rdf.Curve()
	nn := a / math.Sqrt2
	var peakR float64
	var peakG float64
	for b := range g {
		if g[b] > peakG {
			peakG, peakR = g[b], rs[b]
		}
		if rs[b] < nn-0.2 && g[b] != 0 {
			t.Fatalf("g(%.2f) = %g below first shell", rs[b], g[b])
		}
	}
	if math.Abs(peakR-nn) > 0.1 {
		t.Fatalf("first peak at %.3f, want %.3f", peakR, nn)
	}
}

func TestRDFMaxDeviation(t *testing.T) {
	sys := lattice.FCC(3, 3, 3, 4.0)
	a := NewRDF(0, 0, 5.0, 50)
	b := NewRDF(0, 0, 5.0, 50)
	a.Accumulate(sys.Pos, sys.Types, &sys.Box)
	b.Accumulate(sys.Pos, sys.Types, &sys.Box)
	d, err := MaxDeviation(a, b)
	if err != nil || d != 0 {
		t.Fatalf("identical snapshots deviation %g err %v", d, err)
	}
	c := NewRDF(0, 0, 5.0, 40)
	if _, err := MaxDeviation(a, c); err == nil {
		t.Fatal("binning mismatch accepted")
	}
}

// Perfect FCC must classify as 100% fcc.
func TestCNAPerfectFCC(t *testing.T) {
	a := lattice.CuLatticeConst
	sys := lattice.FCC(4, 4, 4, a)
	cls, err := CNA(sys.Pos, sys.Types, &sys.Box, FCCCNACutoff(a), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cls {
		if c != FCC {
			t.Fatalf("atom %d classified %v in perfect fcc", i, c)
		}
	}
}

// A perfect HCP crystal (ideal c/a) must classify as 100% hcp.
func TestCNAPerfectHCP(t *testing.T) {
	// Build ideal hcp with a basis in an orthorhombic cell:
	// a1 = (a, 0, 0), a2 = (0, a*sqrt(3), 0), a3 = (0, 0, c) with 4 atoms.
	a := 2.556 // Cu-like nn distance
	c := a * math.Sqrt(8.0/3)
	nx, ny, nz := 4, 3, 3
	var pos []float64
	var types []int
	base := [][3]float64{
		{0, 0, 0},
		{0.5, 0.5, 0},
		{0.5, 0.5 / 3, 0.5},
		{0, 0.5 + 0.5/3, 0.5},
	}
	Lx, Ly, Lz := float64(nx)*a, float64(ny)*a*math.Sqrt(3), float64(nz)*c
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				for _, b := range base {
					pos = append(pos,
						(float64(ix)+b[0])*a,
						(float64(iy)+b[1])*a*math.Sqrt(3),
						(float64(iz)+b[2])*c)
					types = append(types, 0)
				}
			}
		}
	}
	box := &neighbor.Box{L: [3]float64{Lx, Ly, Lz}}
	cls, err := CNA(pos, types, box, FCCCNACutoff(a*math.Sqrt2), 1) // cutoff from nn distance
	if err != nil {
		t.Fatal(err)
	}
	census := Census(cls)
	if census[HCP] != len(types) {
		t.Fatalf("hcp census %v, want all %d hcp", census, len(types))
	}
}

// A disordered gas must classify as Other.
func TestCNADisordered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := &neighbor.Box{L: [3]float64{15, 15, 15}}
	n := 200
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := range pos {
		pos[i] = rng.Float64() * 15
	}
	cls, err := CNA(pos, types, box, 3.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	census := Census(cls)
	if census[FCC]+census[HCP] > n/20 {
		t.Fatalf("random gas census %v: too much crystal", census)
	}
}

// A nanocrystal must be mostly fcc with a nonzero disordered boundary
// fraction (the Fig. 7(a) morphology).
func TestCNANanocrystal(t *testing.T) {
	a := lattice.CuLatticeConst
	s := lattice.Nanocrystal(28, 2, a, 2.2, 11)
	cls, err := CNA(s.Pos, s.Types, &s.Box, FCCCNACutoff(a), 1)
	if err != nil {
		t.Fatal(err)
	}
	census := Census(cls)
	fcc := float64(census[FCC]) / float64(s.N())
	other := float64(census[Other]) / float64(s.N())
	if fcc < 0.3 {
		t.Fatalf("nanocrystal fcc fraction %.2f too small (census %v)", fcc, census)
	}
	if other < 0.05 {
		t.Fatalf("nanocrystal has no grain boundaries? census %v", census)
	}
}

func TestFCCCNACutoffBetweenShells(t *testing.T) {
	a := 3.615
	rc := FCCCNACutoff(a)
	first := a / math.Sqrt2
	second := a
	if rc <= first || rc >= second {
		t.Fatalf("cutoff %.3f not between shells %.3f and %.3f", rc, first, second)
	}
}
