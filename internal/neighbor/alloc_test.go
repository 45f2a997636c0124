package neighbor_test

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// Build allocates at most twice the entry bytes it returns: the scan keeps
// a 4-byte index per pair, and the entries go straight into one arena of
// the list's size. Checked on the paper's 648-atom water frame (the
// all-pairs regime) and on a cell-path water frame.
func TestBuildAllocationBound(t *testing.T) {
	water := lattice.Water(6, 6, 6, lattice.WaterSpacing, 1)
	big := lattice.Water(8, 8, 8, lattice.WaterSpacing, 1)
	for _, c := range []struct {
		cell    *lattice.System
		spec    neighbor.Spec
		workers int
	}{
		{water, neighbor.Spec{Rcut: 6, Skin: 2, Sel: []int{46, 92}}, 1},
		{water, neighbor.Spec{Rcut: 6, Skin: 2, Sel: []int{46, 92}}, 2},
		{big, neighbor.Spec{Rcut: 4, Skin: 1, Sel: []int{12, 24}}, 2},
	} {
		t.Run(fmt.Sprintf("%d-atoms/workers-%d", c.cell.N(), c.workers), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l, err := neighbor.Build(c.spec, c.cell.Pos, c.cell.Types, c.cell.N(), &c.cell.Box, c.workers)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			entries := 0
			for _, row := range l.Entries {
				entries += len(row)
			}
			listBytes := uint64(entries) * uint64(unsafe.Sizeof(neighbor.Entry{}))
			if got := after.TotalAlloc - before.TotalAlloc; got > 2*listBytes {
				t.Fatalf("Build allocated %d bytes for a list of %d entry bytes (%.2fx), want <= 2x", got, listBytes, float64(got)/float64(listBytes))
			}
		})
	}
}
