package neighbor_test

import (
	"fmt"
	"testing"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// BenchmarkBuild times neighbor.Build on four frames. Three are in the
// all-pairs regime: dpserve's 192-atom request frame (quick water, rc 4 +
// skin 1, jittered as the serving bench jitters it), the paper-geometry
// water box of the MD bench (648 atoms, rc 6 + skin 2) and its copper box
// (500 atoms, rc 8 + skin 1). The fourth, rank, is the grid regime: one of
// the two ranks of the bench's domain-decomposed water (8x4x4 molecules
// split along x, rc 4 + skin 1), its locals with their ghosts in open
// mode, about 4.5 cells a side. entries/atom reports the list's size
// (entries per local atom), which no kernel may change.
//
//	go test -run '^$' -bench BenchmarkBuild -cpu 1,2 ./internal/neighbor/
func BenchmarkBuild(b *testing.B) {
	serve := lattice.Water(4, 4, 4, lattice.WaterSpacing, 1)
	lattice.Perturb(serve, 0.05, 1000)
	water := lattice.Water(6, 6, 6, lattice.WaterSpacing, 1)
	copper := lattice.FCC(5, 5, 5, lattice.CuLatticeConst)
	rankSpec := neighbor.Spec{Rcut: 4, Skin: 1}
	rankPos, rankTypes, rankLocal := rankFrame(lattice.Water(8, 4, 4, lattice.WaterSpacing, 1), rankSpec.RcutBuild())
	for _, c := range []struct {
		name  string
		pos   []float64
		types []int
		nloc  int
		box   *neighbor.Box
		spec  neighbor.Spec
	}{
		{"dpserve", serve.Pos, serve.Types, serve.N(), &serve.Box, neighbor.Spec{Rcut: 4, Skin: 1}},
		{"water", water.Pos, water.Types, water.N(), &water.Box, neighbor.Spec{Rcut: 6, Skin: 2}},
		{"copper", copper.Pos, copper.Types, copper.N(), &copper.Box, neighbor.Spec{Rcut: 8, Skin: 1}},
		{"rank", rankPos, rankTypes, rankLocal, nil, rankSpec},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers-%d", c.name, workers), func(b *testing.B) {
				var l *neighbor.List
				for b.Loop() {
					var err error
					if l, err = neighbor.Build(c.spec, c.pos, c.types, c.nloc, c.box, workers); err != nil {
						b.Fatal(err)
					}
				}
				entries := 0
				for _, row := range l.Entries {
					entries += len(row)
				}
				b.ReportMetric(float64(entries)/float64(c.nloc), "entries/atom")
			})
		}
	}
}

// rankFrame returns the atoms of rank 0 of a two-rank split of s along x:
// its locals (wrapped x below L/2), then as ghosts every periodic image of
// an atom that lies within cut of the rank's half box, as the domain
// layer's exchange delivers them.
func rankFrame(s *lattice.System, cut float64) (pos []float64, types []int, nloc int) {
	l := s.Box.L
	hi := [3]float64{l[0] / 2, l[1], l[2]}
	wrapped := make([]float64, len(s.Pos))
	for a := 0; a < s.N(); a++ {
		copy(wrapped[3*a:3*a+3], s.Pos[3*a:3*a+3])
		s.Box.Wrap(wrapped[3*a : 3*a+3])
	}
	for a := 0; a < s.N(); a++ {
		if wrapped[3*a] < hi[0] {
			pos, types = append(pos, wrapped[3*a:3*a+3]...), append(types, s.Types[a])
		}
	}
	nloc = len(types)
	for a := 0; a < s.N(); a++ {
		for sx := -1; sx <= 1; sx++ {
			for sy := -1; sy <= 1; sy++ {
				for sz := -1; sz <= 1; sz++ {
					p := [3]float64{wrapped[3*a] + float64(sx)*l[0], wrapped[3*a+1] + float64(sy)*l[1], wrapped[3*a+2] + float64(sz)*l[2]}
					in, local := true, sx == 0 && sy == 0 && sz == 0 && p[0] < hi[0]
					for k := range 3 {
						in = in && p[k] >= -cut && p[k] < hi[k]+cut
					}
					if in && !local {
						pos, types = append(pos, p[:]...), append(types, s.Types[a])
					}
				}
			}
		}
	}
	return pos, types, nloc
}
