package neighbor_test

import (
	"fmt"
	"runtime"
	"testing"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// buildBytesPerEntry bounds what Build allocates per list entry, however
// the rows fall to the workers: the arena's 4-byte index, under 16 bytes
// for the 4-byte scan records it is copied from (a doubling buffer
// allocates less than four times what it holds), and about one byte of
// row headers, row counters and cell grid.
const buildBytesPerEntry = 24

// Build allocates at most buildBytesPerEntry bytes per entry it returns.
// Checked on the paper's 648-atom water frame (the all-pairs regime) and
// on a cell-path water frame.
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
			got := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
			if got > buildBytesPerEntry {
				t.Fatalf("Build allocated %.2f bytes per entry of its list, want <= %d", got, buildBytesPerEntry)
			}
		})
	}
}
