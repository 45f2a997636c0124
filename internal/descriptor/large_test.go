package descriptor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepmd-go/internal/neighbor"
)

// One process indexes every atom it holds, so a frame may pass the 99,999
// atoms the paper's decimal key can index (it counts one MPI rank's atoms).
// A sparse 48³ lattice, 110,592 atoms with six neighbors each, goes
// through Build, Format and Environment; the rows that name atoms past
// 99,999 hold exactly the brute-force neighbors of their atom.
func TestEnvironmentAboveDecimalKeyRange(t *testing.T) {
	const side, a = 48, 1.0
	n := side * side * side
	pos := make([]float64, 0, 3*n)
	types := make([]int, 0, n)
	rng := rand.New(rand.NewSource(9))
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				for _, c := range []int{x, y, z} {
					pos = append(pos, a*float64(c)+0.02*(rng.Float64()-0.5))
				}
				types = append(types, x%2)
			}
		}
	}
	box := &neighbor.Box{L: [3]float64{side * a, side * a, side * a}}
	cfg := Config{Rcut: 1.1, RcutSmth: 0.5, Sel: []int{4, 4}}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: 0.1, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, pos, types, n, box, 2)
	if err != nil {
		t.Fatal(err)
	}
	var fm neighbor.Formatter
	fmtd, err := fm.Format(spec, list)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	env, err := sc.Environment(nil, cfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	if fmtd.Overflow != 0 || env.Fmt.Overflow != 0 {
		t.Fatalf("overflow %d and %d, want none", fmtd.Overflow, env.Fmt.Overflow)
	}

	// brute is atom i's neighbors inside the cutoff, in ascending index.
	brute := func(i int) []int32 {
		var out []int32
		for j := 0; j < n; j++ {
			d := neighbor.Displacement(pos, i, j, box)
			if r := vecNorm(d); j != i && r < cfg.Rcut {
				out = append(out, int32(j))
			}
		}
		return out
	}
	past := 0
	for i := 0; i < n; i += 4999 {
		want := brute(i)
		for _, f := range []*neighbor.Formatted{fmtd, env.Fmt} {
			var got []int32
			for ty := range cfg.Sel {
				got = append(got, f.Section(i, ty)...)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("atom %d: neighbors %v, brute force %v", i, got, want)
			}
		}
		if rows := env.Off[(i+1)*len(cfg.Sel)] - env.Off[i*len(cfg.Sel)]; rows != len(want) {
			t.Fatalf("atom %d: %d environment rows, want %d", i, rows, len(want))
		}
		if slices.Max(want) > 99_999 {
			past++
		}
	}
	if past == 0 {
		t.Fatal("premise: no sampled row names an atom past 99,999")
	}
	for k, v := range env.R {
		if math.IsNaN(v) {
			t.Fatalf("R[%d] is NaN", k)
		}
	}
}
