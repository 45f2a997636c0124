package lattice

import (
	"math"
	"math/rand"
	"testing"

	"deepmd-go/internal/neighbor"
)

func TestFCCGeometry(t *testing.T) {
	a := CuLatticeConst
	s := FCC(3, 3, 3, a)
	if s.N() != 4*27 {
		t.Fatalf("atom count = %d, want 108", s.N())
	}
	// Nearest neighbor distance must be a/sqrt(2) with 12 neighbors.
	spec := neighbor.Spec{Rcut: a/math.Sqrt2 + 0.1, Sel: []int{16}}
	list, err := neighbor.Build(spec, s.Pos, s.Types, s.N(), &s.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := a / math.Sqrt2
	for i, nbrs := range list.Entries {
		if len(nbrs) != 12 {
			t.Fatalf("atom %d has %d nearest neighbors, want 12", i, len(nbrs))
		}
		for _, j := range nbrs {
			if r := imageDist(s, i, int(j)); math.Abs(r-want) > 1e-9 {
				t.Fatalf("nn distance %g, want %g", r, want)
			}
		}
	}
}

func TestWaterGeometry(t *testing.T) {
	s := Water(3, 3, 3, WaterSpacing, 42)
	if s.N() != 81 {
		t.Fatalf("atom count = %d, want 81", s.N())
	}
	nmol := 27
	for k := 0; k < nmol; k++ {
		if s.Types[3*k] != 0 || s.Types[3*k+1] != 1 || s.Types[3*k+2] != 1 {
			t.Fatalf("molecule %d types wrong", k)
		}
		o := s.Pos[9*k : 9*k+3]
		h1 := s.Pos[9*k+3 : 9*k+6]
		h2 := s.Pos[9*k+6 : 9*k+9]
		d1 := dist(o, h1)
		d2 := dist(o, h2)
		if math.Abs(d1-0.9572) > 1e-9 || math.Abs(d2-0.9572) > 1e-9 {
			t.Fatalf("molecule %d OH lengths %g %g", k, d1, d2)
		}
		// Angle
		var dot float64
		for a := 0; a < 3; a++ {
			dot += (h1[a] - o[a]) * (h2[a] - o[a])
		}
		theta := math.Acos(dot/(d1*d2)) * 180 / math.Pi
		if math.Abs(theta-104.52) > 1e-6 {
			t.Fatalf("molecule %d angle %g", k, theta)
		}
	}
	// Determinism.
	s2 := Water(3, 3, 3, WaterSpacing, 42)
	for i := range s.Pos {
		if s.Pos[i] != s2.Pos[i] {
			t.Fatal("water build not deterministic")
		}
	}
	// Different seed differs.
	s3 := Water(3, 3, 3, WaterSpacing, 43)
	same := true
	for i := range s.Pos {
		if s.Pos[i] != s3.Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical orientations")
	}
}

func TestWaterDensity(t *testing.T) {
	s := Water(4, 4, 4, WaterSpacing, 1)
	// mass of 64 molecules in g
	const amuToG = 1.66053906660e-24
	mass := 64 * (15.9994 + 2*1.00794) * amuToG
	volCM3 := s.Box.Volume() * 1e-24
	rho := mass / volCM3
	if rho < 0.95 || rho > 1.05 {
		t.Fatalf("water density %.3f g/cm^3, want ~1", rho)
	}
}

func TestNanocrystal(t *testing.T) {
	a := CuLatticeConst
	s := Nanocrystal(25, 4, a, 2.0, 7)
	if s.N() < 500 {
		t.Fatalf("nanocrystal too sparse: %d atoms", s.N())
	}
	// Density sanity: within 30% of perfect FCC atom density.
	perfect := 4 / (a * a * a) * s.Box.Volume()
	if float64(s.N()) < 0.7*perfect || float64(s.N()) > 1.05*perfect {
		t.Fatalf("nanocrystal atom count %d vs perfect %.0f", s.N(), perfect)
	}
	// Minimum separation must be respected.
	spec := neighbor.Spec{Rcut: 2.0, Sel: []int{32}}
	list, err := neighbor.Build(spec, s.Pos, s.Types, s.N(), &s.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, nbrs := range list.Entries {
		for _, j := range nbrs {
			if r := imageDist(s, i, int(j)); r < 2.0-1e-9 {
				t.Fatalf("atoms %d-%d closer than minSep: %g", i, j, r)
			}
		}
	}
	// All atoms inside the box.
	for i := 0; i < s.N(); i++ {
		for k := 0; k < 3; k++ {
			v := s.Pos[3*i+k]
			if v < 0 || v >= s.Box.L[k] {
				t.Fatalf("atom %d outside box: %v", i, v)
			}
		}
	}
}

func TestPerturbBounded(t *testing.T) {
	s := FCC(2, 2, 2, 4.0)
	orig := append([]float64(nil), s.Pos...)
	Perturb(s, 0.1, 3)
	moved := false
	for i := range s.Pos {
		d := math.Abs(s.Pos[i] - orig[i])
		if d > 0.1+1e-12 {
			t.Fatalf("perturbation %g exceeds amplitude", d)
		}
		if d > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("perturb did nothing")
	}
}

func TestRandomRotationIsOrthogonal(t *testing.T) {
	rng := newTestRand()
	for trial := 0; trial < 20; trial++ {
		m := randomRotation(rng)
		// m * m^T == I
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				var s float64
				for k := 0; k < 3; k++ {
					s += m[i][k] * m[j][k]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(s-want) > 1e-12 {
					t.Fatalf("rotation not orthogonal at (%d,%d): %g", i, j, s)
				}
			}
		}
		// Determinant +1 (proper rotation).
		det := m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
		if math.Abs(det-1) > 1e-12 {
			t.Fatalf("determinant %g, want 1", det)
		}
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for k := 0; k < 3; k++ {
		s += (a[k] - b[k]) * (a[k] - b[k])
	}
	return math.Sqrt(s)
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

// imageDist is the minimum-image distance between atoms i and j of s.
func imageDist(s *System, i, j int) float64 {
	d := [3]float64{s.Pos[3*j] - s.Pos[3*i], s.Pos[3*j+1] - s.Pos[3*i+1], s.Pos[3*j+2] - s.Pos[3*i+2]}
	s.Box.MinImage(&d)
	return math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
}
