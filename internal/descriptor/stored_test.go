package descriptor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// storedJacobian is the layout the products once read, kept as their
// oracle: per row the 12 entries of dR~/dd (dr[c*3+a] = dR~[c]/dd_a) and
// the displacement, computed from the positions the way the Environment
// operator computed them, zero where it declined the row.
func storedJacobian(cfg Config, pos []float64, box *neighbor.Box, env *EnvOut) (dr, rij []float64) {
	rows := len(env.R) / 4
	dr = make([]float64, rows*12)
	rij = make([]float64, rows*3)
	nt := len(cfg.Sel)
	for i := 0; i < env.Nloc; i++ {
		for t := 0; t < nt; t++ {
			lo, hi := env.Off[i*nt+t], env.Off[i*nt+t+1]
			for x := lo; x < hi; x++ {
				d := neighbor.Displacement(pos, i, int(env.Fmt.Section(i, t)[x-lo]), box)
				rr := vecNorm(d)
				if rr >= cfg.Rcut || rr == 0 {
					continue
				}
				s, ds := Smooth(rr, cfg.RcutSmth, cfg.Rcut)
				inv := 1 / rr
				q := s * inv
				dq := ds*inv - s*inv*inv
				copy(rij[3*x:3*x+3], d[:])
				for a := 0; a < 3; a++ {
					ra := d[a] * inv
					dr[12*x+a] = ds * ra
					for b := 0; b < 3; b++ {
						v := d[b] * dq * ra
						if a == b {
							v += q
						}
						dr[12*x+(b+1)*3+a] = v
					}
				}
			}
		}
	}
	return dr, rij
}

// storedProdRows is ProdRows over a stored Jacobian: the contraction and
// scatter order the rebuilt rows must reproduce bit for bit.
func storedProdRows[T tensor.Float](netDeriv []T, env *EnvOut, dr, rij []float64, lo, hi int, force []float64, w *[9]float64) {
	nt := len(env.Fmt.Sel)
	var w0, w1, w2, w3, w4, w5, w6, w7, w8 float64
	for i := lo; i < hi; i++ {
		var fi0, fi1, fi2 float64
		for t := 0; t < nt; t++ {
			base, end := env.Off[i*nt+t], env.Off[i*nt+t+1]
			for k, j32 := range env.Fmt.Section(i, t)[:end-base] {
				x := base + k
				n0, n1, n2, n3 := float64(netDeriv[4*x]), float64(netDeriv[4*x+1]), float64(netDeriv[4*x+2]), float64(netDeriv[4*x+3])
				g := dr[12*x : 12*x+12]
				d0 := n0*g[0] + n1*g[3] + n2*g[6] + n3*g[9]
				d1 := n0*g[1] + n1*g[4] + n2*g[7] + n3*g[10]
				d2 := n0*g[2] + n1*g[5] + n2*g[8] + n3*g[11]
				j := int(j32)
				force[3*j] -= d0
				force[3*j+1] -= d1
				force[3*j+2] -= d2
				fi0 += d0
				fi1 += d1
				fi2 += d2
				r := rij[3*x : 3*x+3]
				w0 -= r[0] * d0
				w1 -= r[0] * d1
				w2 -= r[0] * d2
				w3 -= r[1] * d0
				w4 -= r[1] * d1
				w5 -= r[1] * d2
				w6 -= r[2] * d0
				w7 -= r[2] * d1
				w8 -= r[2] * d2
			}
		}
		force[3*i] += fi0
		force[3*i+1] += fi1
		force[3*i+2] += fi2
	}
	for x, v := range [9]float64{w0, w1, w2, w3, w4, w5, w6, w7, w8} {
		w[x] += v
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns, any
// NaN matching any NaN.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	})
}

// requireStoredBits runs ProdRows and the stored-Jacobian products block by
// block over the same gradient and requires every block's partial force
// and virial, and their sums, to be bitwise equal.
func requireStoredBits[T tensor.Float](t testing.TB, label string, nd []T, env *EnvOut, dr, rij []float64, nall int) {
	t.Helper()
	for b := 0; b < ProdBlocks; b++ {
		lo, hi := BlockRange(env.Nloc, b)
		got, want := make([]float64, 3*nall), make([]float64, 3*nall)
		var gw, ww [9]float64
		ProdRows(nd, env, lo, hi, got, &gw)
		storedProdRows(nd, env, dr, rij, lo, hi, want, &ww)
		if !sameBits(got, want) || !sameBits(gw[:], ww[:]) {
			t.Fatalf("%s: block %d (atoms %d..%d) differs from the stored-Jacobian products", label, b, lo, hi)
		}
	}
	got, want := make([]float64, 3*nall), make([]float64, 3*nall)
	var gw, ww [9]float64
	ProdRows(nd, env, 0, env.Nloc, got, &gw)
	storedProdRows(nd, env, dr, rij, 0, env.Nloc, want, &ww)
	if !sameBits(got, want) || !sameBits(gw[:], ww[:]) {
		t.Fatalf("%s: whole-range products differ from the stored-Jacobian products", label)
	}
}

// The products rebuild dR~/dd per slot from the geometry row instead of
// reading it; forces and virials must keep the bits of the stored layout.
// Water and copper, in double and mixed gradients, with a neighbor moved
// onto its center (a declined row inside a section) and the atoms drifted
// under the old list (skin entries past rc).
func TestProdRowsMatchStoredJacobian(t *testing.T) {
	water := lattice.Water(3, 3, 3, lattice.WaterSpacing, 7)
	copper := lattice.FCC(4, 4, 4, 3.615)
	lattice.Perturb(copper, 0.05, 3)
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
			box := &sys.cell.Box
			list, err := neighbor.Build(neighbor.Spec{Rcut: sys.cfg.Rcut, Skin: sys.skin, Sel: sys.cfg.Sel}, sys.cell.Pos, sys.cell.Types, n, box, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			pos := slices.Clone(sys.cell.Pos)
			for x := range pos {
				pos[x] += 0.4 * (rng.Float64() - 0.5)
			}
			j := list.Entries[3][0]
			copy(pos[3*j:3*j+3], pos[9:12])

			var sc Scratch
			env, err := sc.Environment(nil, sys.cfg, pos, sys.cell.Types, list, box)
			if err != nil {
				t.Fatal(err)
			}
			declined, skin := 0, 0
			nt := len(sys.cfg.Sel)
			for x := 0; x < len(env.R)/4; x++ {
				if env.R[4*x] == 0 {
					declined++
				}
			}
			for k := 0; k < n*nt; k++ {
				skin += len(env.Fmt.Section(k/nt, k%nt)) - (env.Off[k+1] - env.Off[k])
			}
			if declined == 0 || skin == 0 {
				t.Fatalf("%d declined rows inside a section, %d skin entries beyond one: the case misses what it is for", declined, skin)
			}

			dr, rij := storedJacobian(sys.cfg, pos, box, env)
			nd := make([]float64, len(env.R))
			for x := range nd {
				nd[x] = rng.NormFloat64()
			}
			requireStoredBits(t, "double", nd, env, dr, rij, n)
			nd32 := make([]float32, len(nd))
			for x, v := range nd {
				nd32[x] = float32(v)
			}
			requireStoredBits(t, "mixed", nd32, env, dr, rij, n)
		})
	}
}

// One row at a fuzzed displacement, behind a neighbor coincident with the
// center, through ProdRows and the stored-Jacobian products: the same bits
// (a NaN matching a NaN) in both precisions, and nothing from the declined
// slots — the coincident atom's force, and everything when the fuzzed
// neighbor is itself outside the cutoff or on the center, stays +0. The
// anchor byte picks where the displacement lands: any magnitude, near 0
// (down into the subnormals), on either side of rcut_smth or rcut, or
// huge.
func FuzzProdRowsMatchStoredJacobian(f *testing.F) {
	f.Add(uint8(0), 2.5, 1.0, 0.3, -0.2, 0.7, -1.1, 0.4, 2.0)
	f.Add(uint8(1), 0.3, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
	f.Add(uint8(51), 0.9, -1.0, 2.0, 0.5, -3.0, 0.25, 8.0, -0.5)
	f.Add(uint8(2), -0.5, 1.0, 1.0, 1.0, 0.5, -0.5, 0.5, -0.5)
	f.Add(uint8(3), 0.5, 0.0, -1.0, 0.0, 2.0, 1.0, -1.0, 3.0)
	f.Add(uint8(38), -0.5, 3.0, 4.0, 0.0, 1.0, -2.0, 0.0, 1.0)
	f.Add(uint8(4), 0.1, 1.0, -1.0, 1.0, 1.0, 2.0, 3.0, 4.0)
	f.Fuzz(func(t *testing.T, anchor uint8, rel, ux, uy, uz, n0, n1, n2, n3 float64) {
		for _, v := range []float64{rel, ux, uy, uz, n0, n1, n2, n3} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		cfg := Config{Rcut: 6.0, RcutSmth: 0.5, Sel: []int{4}}
		eps, level := math.Mod(rel, 1), int(anchor/5)
		var r float64
		switch anchor % 5 {
		case 0:
			r = math.Abs(rel)
		case 1:
			r = math.Ldexp(1+math.Abs(eps), -21*level)
		case 2:
			r = cfg.RcutSmth * (1 + math.Ldexp(eps, -level))
		case 3:
			r = cfg.Rcut * (1 + math.Ldexp(eps, -level))
		case 4:
			r = 1e300 * (1 + eps)
		}
		u := [3]float64{ux, uy, uz}
		un := vecNorm(u)
		if un == 0 || math.IsInf(un, 0) {
			u, un = [3]float64{1, 0, 0}, 1
		}
		// Atom 0 is the center, atom 1 sits on it, atom 2 is the fuzzed
		// neighbor: its displacement is its position exactly.
		pos := make([]float64, 9)
		for k := range u {
			pos[6+k] = u[k] / un * r
		}
		// The formatted section is given (Rows refuses a non-finite
		// distance); the row count, Pack and Fill are the operator's own.
		var sc Scratch
		sc.out = EnvOut{
			Nloc: 1,
			Fmt:  &neighbor.Formatted{Nloc: 1, Sel: cfg.Sel, Idx: []int32{1, 2}, SecOff: []int32{0, 2}},
			Off:  []int{0, 0},
		}
		env := &sc.out
		env.Off[1] = sectionRows(cfg, []float64{vecNorm(neighbor.Displacement(pos, 0, 1, nil)), vecNorm(neighbor.Displacement(pos, 0, 2, nil))})
		sc.Pack()
		sc.Fill(cfg, pos, nil, 0, 1)
		dr, rij := storedJacobian(cfg, pos, nil, env)
		nd := []float64{n3, n2, n1, n0, n0, n1, n2, n3, n1, n1, n1, n1, n2, n2, n2, n2}
		nd32 := make([]float32, len(nd))
		for x, v := range nd {
			nd32[x] = float32(v)
		}
		requireStoredBits(t, "double", nd, env, dr, rij, 3)
		requireStoredBits(t, "mixed", nd32, env, dr, rij, 3)

		force := make([]float64, 9)
		var w [9]float64
		ProdRows(nd, env, 0, 1, force, &w)
		zero := func(v []float64) bool {
			return !slices.ContainsFunc(v, func(x float64) bool { return math.Float64bits(x) != 0 })
		}
		if !zero(force[3:6]) {
			t.Fatalf("r = %g: the coincident atom got force %v", r, force[3:6])
		}
		if env.Off[1] == 0 && (!zero(force) || !zero(w[:])) {
			t.Fatalf("r = %g: a frame of declined slots produced force %v, virial %v", r, force, w)
		}
		if rr := vecNorm([3]float64(pos[6:9])); (rr > 0 && rr < cfg.Rcut) != (env.Off[1] == 2) {
			t.Fatalf("r = %g (|d| = %g): %d rows", r, rr, env.Off[1])
		}
	})
}
