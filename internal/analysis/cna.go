package analysis

import (
	"deepmd-go/internal/neighbor"
)

// Structure is the per-atom classification of common neighbor analysis.
type Structure uint8

const (
	// Other marks disordered atoms: grain boundaries and surfaces (cyan
	// and yellow in Fig. 7).
	Other Structure = iota
	// FCC marks atoms in face-centered-cubic grains (purple in Fig. 7).
	FCC
	// HCP marks hexagonal atoms: stacking faults inside fcc grains
	// appear as hcp bilayers after deformation (Sec. 8.1).
	HCP
)

// String returns the classification name.
func (s Structure) String() string {
	switch s {
	case FCC:
		return "fcc"
	case HCP:
		return "hcp"
	default:
		return "other"
	}
}

// CNA performs conventional common neighbor analysis (Honeycutt-Andersen /
// Faken-Jonsson as used by the paper's Fig. 7, refs. [19, 30]) with the
// given cutoff, which for fcc should lie between the first and second
// neighbor shells: rc = a * (1/sqrt(2) + 1) / 2 ~ 0.854 a.
//
// An atom is fcc if it has exactly 12 neighbors, all with (4 2 1)
// signatures; hcp if it has 12 neighbors with six (4 2 1) and six (4 2 2)
// signatures; everything else is Other. The neighbor search uses workers
// goroutines (<= 1 is serial).
func CNA(pos []float64, types []int, box *neighbor.Box, rcut float64, workers int) ([]Structure, error) {
	n := len(types)
	spec := neighbor.Spec{Rcut: rcut, Sel: []int{64}}
	// CNA ignores chemical types: search with a single-type view.
	ones := make([]int, n)
	list, err := neighbor.Build(spec, pos, ones, n, box, workers)
	if err != nil {
		return nil, err
	}
	// Adjacency sets limited to the cutoff.
	adj := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		adj[i] = make(map[int]bool, 16)
		for _, j := range list.Entries[i] {
			adj[i][int(j)] = true
		}
	}

	out := make([]Structure, n)
	for i := 0; i < n; i++ {
		nbrs := list.Entries[i]
		if len(nbrs) != 12 {
			continue // fcc and hcp both have exactly 12 within this cutoff
		}
		n421, n422 := 0, 0
		ok := true
		for _, j32 := range nbrs {
			j := int(j32)
			// Common neighbors of the i-j bond.
			var common []int
			for _, k32 := range nbrs {
				k := int(k32)
				if k != j && adj[j][k] {
					common = append(common, k)
				}
			}
			if len(common) != 4 {
				ok = false
				break
			}
			// Bonds among the common neighbors.
			bonds := 0
			deg := make(map[int]int, 4)
			for x := 0; x < len(common); x++ {
				for y := x + 1; y < len(common); y++ {
					if adj[common[x]][common[y]] {
						bonds++
						deg[common[x]]++
						deg[common[y]]++
					}
				}
			}
			if bonds != 2 {
				ok = false
				break
			}
			// Longest continuous chain among the 2 bonds: fcc has two
			// disjoint bonds (chain length 1), hcp has both bonds sharing
			// an atom (chain length 2).
			chain := 1
			for _, d := range deg {
				if d == 2 {
					chain = 2
				}
			}
			if chain == 1 {
				n421++
			} else {
				n422++
			}
		}
		if !ok {
			continue
		}
		switch {
		case n421 == 12:
			out[i] = FCC
		case n421 == 6 && n422 == 6:
			out[i] = HCP
		}
	}
	return out, nil
}

// Census counts the classifications.
func Census(s []Structure) map[Structure]int {
	out := map[Structure]int{}
	for _, v := range s {
		out[v]++
	}
	return out
}

// FCCCNACutoff returns the conventional CNA cutoff for an fcc lattice
// constant a: halfway between the first and second neighbor shells.
func FCCCNACutoff(a float64) float64 {
	const sqrt2 = 1.4142135623730951
	return a * (1/sqrt2 + 1) / 2
}
