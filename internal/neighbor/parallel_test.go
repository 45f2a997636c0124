package neighbor

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// requireIdentical asserts two lists are bit-identical: same rows, same
// entry order, same coincident pair — stronger than the set comparison of
// sameNeighborSets, as required for the parallel build to be a drop-in
// replacement.
func requireIdentical(t *testing.T, serial, parallel *List) {
	t.Helper()
	if serial.Nloc != parallel.Nloc {
		t.Fatalf("nloc %d != %d", serial.Nloc, parallel.Nloc)
	}
	if serial.Coincident != parallel.Coincident {
		t.Fatalf("coincident pair %v != %v", serial.Coincident, parallel.Coincident)
	}
	for i := range serial.Entries {
		if len(serial.Entries[i]) == 0 && len(parallel.Entries[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(serial.Entries[i], parallel.Entries[i]) {
			t.Fatalf("atom %d rows differ:\nserial:   %v\nparallel: %v",
				i, serial.Entries[i], parallel.Entries[i])
		}
	}
}

// Parallel builds must be bit-identical to the serial build in the
// periodic cell-binned regime.
func TestParallelMatchesSerialCells(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	box := &Box{L: [3]float64{22, 20, 24}}
	spec := Spec{Rcut: 2.5, Skin: 0.5, Sel: []int{64, 64}}
	pos, types := randomConfig(rng, 900, box, 2)
	serial, err := Build(spec, pos, types, 900, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 7, 16} {
		par, err := Build(spec, pos, types, 900, box, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		requireIdentical(t, serial, par)
	}
}

// Same in the open (domain-decomposed) mode with ghost atoms beyond nloc.
func TestParallelMatchesSerialOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	box := &Box{L: [3]float64{18, 18, 18}}
	spec := Spec{Rcut: 2.0, Skin: 0.5, Sel: []int{64}}
	pos, types := randomConfig(rng, 700, box, 1)
	serial, err := Build(spec, pos, types, 500, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := Build(spec, pos, types, 500, nil, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		requireIdentical(t, serial, par)
	}
}

// Same in the all-pairs regime (too few atoms / too small a box for the
// cell decomposition).
func TestParallelMatchesSerialAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// 40 atoms: below the 64-atom cell threshold.
	box := &Box{L: [3]float64{12, 12, 12}}
	spec := Spec{Rcut: 3.0, Skin: 0.5, Sel: []int{32}}
	pos, types := randomConfig(rng, 40, box, 1)
	serial, err := Build(spec, pos, types, 40, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(spec, pos, types, 40, box, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, serial, par)

	// 300 atoms in a box holding fewer than 3 cells per edge: all-pairs
	// despite the atom count.
	box2 := &Box{L: [3]float64{14, 14, 14}}
	spec2 := Spec{Rcut: 6.0, Skin: 1.0, Sel: []int{128}}
	pos2, types2 := randomConfig(rng, 300, box2, 1)
	serial2, err := Build(spec2, pos2, types2, 300, box2, 1)
	if err != nil {
		t.Fatal(err)
	}
	par2, err := Build(spec2, pos2, types2, 300, box2, 6)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, serial2, par2)
}

// The skin/rebuild path: a list built with a skin stays valid while atoms
// move less than skin/2, and the rebuild at displaced positions must again
// be identical between serial and parallel builds.
func TestParallelMatchesSerialAcrossRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	box := &Box{L: [3]float64{20, 20, 20}}
	spec := Spec{Rcut: 2.5, Skin: 1.0, Sel: []int{64}}
	pos, types := randomConfig(rng, 600, box, 1)

	tr := NewTracker(spec.Skin)
	serial, err := Build(spec, pos, types, 600, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(spec, pos, types, 600, box, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, serial, par)
	tr.Record(pos)

	// Drift every atom by less than skin/2: no rebuild needed yet.
	moved := append([]float64(nil), pos...)
	for i := range moved {
		moved[i] += (2*rng.Float64() - 1) * 0.2
	}
	if tr.NeedsRebuild(moved) {
		t.Fatal("movement below skin/2 must not trigger rebuild")
	}
	// Push one atom past the criterion and rebuild both ways.
	moved[0] += spec.Skin
	if !tr.NeedsRebuild(moved) {
		t.Fatal("movement beyond skin/2 must trigger rebuild")
	}
	for i := 0; i < len(moved); i += 3 {
		box.Wrap(moved[i : i+3])
	}
	serial2, err := Build(spec, moved, types, 600, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	par2, err := Build(spec, moved, types, 600, box, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, serial2, par2)
}

// Property: for random sizes, boxes, cutoffs and worker counts, parallel
// and serial builds agree bit-for-bit in whichever regime the parameters
// select.
func TestParallelBuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(400)
		l := 12 + 10*rng.Float64()
		box := &Box{L: [3]float64{l, l + rng.Float64(), l + 2*rng.Float64()}}
		spec := Spec{Rcut: 1.5 + 2*rng.Float64(), Skin: rng.Float64(), Sel: []int{64, 64}}
		pos, types := randomConfig(rng, n, box, 2)
		nloc := 1 + rng.Intn(n)
		var b *Box
		if rng.Intn(2) == 0 {
			b = box
		}
		serial, err := Build(spec, pos, types, nloc, b, 1)
		if err != nil {
			return b != nil // periodic mode may reject small boxes
		}
		workers := 2 + rng.Intn(8)
		par, err := Build(spec, pos, types, nloc, b, workers)
		if err != nil {
			return false
		}
		if serial.Nloc != par.Nloc {
			return false
		}
		for i := range serial.Entries {
			if len(serial.Entries[i]) != len(par.Entries[i]) {
				return false
			}
			for k := range serial.Entries[i] {
				if serial.Entries[i][k] != par.Entries[i][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Degenerate inputs must not panic or race regardless of worker count.
func TestParallelBuildEdgeCases(t *testing.T) {
	spec := Spec{Rcut: 2, Skin: 0.5, Sel: []int{8}}
	for _, w := range []int{0, 1, 4, 64} {
		// Zero local atoms.
		l, err := Build(spec, []float64{1, 1, 1}, []int{0}, 0, nil, w)
		if err != nil || l.Nloc != 0 {
			t.Fatalf("workers=%d empty build: %v %v", w, l, err)
		}
		// One atom, no neighbors.
		l, err = Build(spec, []float64{1, 1, 1}, []int{0}, 1, nil, w)
		if err != nil || len(l.Entries[0]) != 0 {
			t.Fatalf("workers=%d single atom: %v %v", w, l, err)
		}
	}
}

// Build flags atoms at zero distance during the scan and records the
// lowest such pair on the List: the same pair at one and two workers, in
// the all-pairs and cell regimes, for a pair on one spot and for one that
// coincides only through a periodic image.
func TestBuildRecordsLowestCoincidentPair(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		box   *Box
		cells bool
	}{
		{"all-pairs", 300, &Box{L: [3]float64{8, 8, 8}}, false},
		{"cells", 900, &Box{L: [3]float64{22, 20, 24}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Rcut: 2.5, Skin: 0.5, Sel: []int{64, 64}}
			pos, types := randomConfig(rand.New(rand.NewSource(12)), tc.n, tc.box, 2)
			if got := useCells(pos, tc.n, tc.box, spec.RcutBuild()); got != tc.cells {
				t.Fatalf("premise: useCells %v, want %v", got, tc.cells)
			}
			check := func(label string, want [2]int) {
				t.Helper()
				for _, workers := range []int{1, 2} {
					l, err := Build(spec, pos, types, tc.n, tc.box, workers)
					if err != nil {
						t.Fatal(err)
					}
					if l.Coincident != want {
						t.Fatalf("%s, workers=%d: Coincident %v, want %v", label, workers, l.Coincident, want)
					}
				}
			}
			check("no pair", [2]int{})

			// Atom 250 on atom 180's spot.
			copy(pos[3*250:3*250+3], pos[3*180:3*180+3])
			check("one spot", [2]int{180, 250})

			// Atom 90 one box edge from atom 40 along x, at values that make
			// the edge exact: the pair coincides only through the image, and
			// it is the lower pair.
			pos[3*40] = 1.5
			copy(pos[3*90:3*90+3], pos[3*40:3*40+3])
			pos[3*90] += tc.box.L[0]
			check("periodic image", [2]int{40, 90})
		})
	}
}
