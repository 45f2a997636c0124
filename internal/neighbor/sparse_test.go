package neighbor

import (
	"math/rand"
	"runtime"
	"testing"
)

// A sparse box must not cost memory in proportion to its volume: 64 atoms
// in a 2000 Å box would ask for ⌊2000/7⌋³ ≈ 23M cells if the grid followed
// the box, and a single evaluate request can name any box. Build allocates
// under 1 MB because the grid holds at most max(27, nall) cells.
func TestBuildSparseBoxMemoryBounded(t *testing.T) {
	box := &Box{L: [3]float64{2000, 2000, 2000}}
	spec := Spec{Rcut: 6, Skin: 1, Sel: []int{64}}
	pos := make([]float64, 0, 3*64)
	for i := 0; i < 64; i++ {
		pos = append(pos, 2*float64(i%4), 2*float64(i/4%4), 2*float64(i/16))
	}
	types := make([]int, 64)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Build(spec, pos, types, 64, box, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Build allocated %d bytes for 64 atoms in a 2000 Å box, want < 1 MB", got)
	}
	sameNeighborSets(t, l.Entries, reference(spec, pos, types, 64, box))
}

// sparseCluster places n atoms in a cube of edge w centred on the origin.
// With a box, positions wrap into it: a dense cluster straddling every
// periodic face of a box far larger than itself.
func sparseCluster(rng *rand.Rand, n int, w float64, box *Box) ([]float64, []int) {
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = (rng.Float64() - 0.5) * w
		}
		if box != nil {
			box.Wrap(pos[3*i : 3*i+3])
		}
		types[i] = rng.Intn(2)
	}
	return pos, types
}

// The coarsened grid of a sparse box finds the same neighbors as brute
// force, and its parallel build is bit-identical to the serial one, in
// both modes: periodic, with a cluster wrapping across the box faces, and
// open, where one stray ghost stretches the bounding box.
func TestSparseBoxMatchesBruteForceAndSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	spec := Spec{Rcut: 2.5, Skin: 0.5, Sel: []int{64, 64}}

	box := &Box{L: [3]float64{300, 280, 320}}
	pos, types := sparseCluster(rng, 700, 14, box)
	open, openTypes := sparseCluster(rng, 700, 14, nil)
	open = append(open, 900, -40, 650)
	openTypes = append(openTypes, 1)

	for _, c := range []struct {
		name  string
		pos   []float64
		types []int
		nloc  int
		box   *Box
	}{
		{"periodic", pos, types, 700, box},
		{"open", open, openTypes, 600, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			serial, err := Build(spec, c.pos, c.types, c.nloc, c.box, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := reference(spec, c.pos, c.types, c.nloc, c.box)
			sameNeighborSets(t, serial.Entries, want)
			// The set comparison forgives duplicates; a cell visited twice
			// shows up as a longer row.
			for i := range want {
				if len(serial.Entries[i]) != len(want[i]) {
					t.Fatalf("atom %d: %d entries, want %d", i, len(serial.Entries[i]), len(want[i]))
				}
			}
			for _, w := range []int{2, 3, 8} {
				par, err := Build(spec, c.pos, c.types, c.nloc, c.box, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				requireIdentical(t, serial, par)
			}
		})
	}
}
