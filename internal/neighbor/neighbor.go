// Package neighbor builds and formats neighbor lists for the Deep
// Potential model.
//
// Two layouts are provided, matching the before/after of Sec. 5.2.1:
//
//   - The baseline layout is an array-of-structures (AoS) list: each
//     element carries {type, distance, index}, neighbor counts vary per
//     atom, and the embedding computation must branch on the type of every
//     neighbor.
//   - The optimized layout sorts each atom's neighbors by (type, distance)
//     and pads every type section to its cutoff number sel[t], producing a
//     fixed-stride, branch-free index table. Sorting uses the paper's
//     64-bit compression type*1e15 + floor(r*1e8)*1e5 + index so plain
//     integers order the list (Sec. 5.2.2).
//
// Construction itself uses a linked-cell search: O(N) in the number of
// atoms, with an all-pairs fallback for boxes too small to hold 3x3x3
// cells that visits each pair once. Both are parallel and write one entry
// arena of exactly the list's size (see build.go). Build leaves every row
// in the compressed keys' order, so the per-step format only repairs the
// few inversions drift has made since. The output is bit-identical for
// every worker count.
package neighbor

import "math"

// Box is an orthorhombic periodic simulation box with edge lengths L.
type Box struct {
	L [3]float64
}

// Volume returns the box volume.
func (b *Box) Volume() float64 { return b.L[0] * b.L[1] * b.L[2] }

// MinImage folds the displacement d into the minimum image convention:
// each component becomes d - L*Round(d/L). Below one and a half box
// lengths, which covers every displacement between wrapped positions, the
// rounded multiple is -1, 0 or 1 and is picked by two compares instead of
// math.Round, which is no amd64 instruction. Nonzero results are bitwise
// those of the Round formula (a zero may differ in sign).
func (b *Box) MinImage(d *[3]float64) {
	for k := 0; k < 3; k++ {
		l := b.L[k]
		q := d[k] / l
		if !(q > -1.5 && q < 1.5) { // far images, ±Inf and NaN
			d[k] -= l * math.Round(q)
			continue
		}
		// Conditional moves, not branches: the all-pairs scan meets
		// each of -1, 0 and 1 unpredictably.
		n := 0
		if q >= 0.5 {
			n = 1
		}
		if q <= -0.5 {
			n = -1
		}
		d[k] -= l * float64(n)
	}
}

// Wrap folds position p back into [0, L).
func (b *Box) Wrap(p []float64) {
	for k := 0; k < 3; k++ {
		l := b.L[k]
		p[k] -= l * math.Floor(p[k]/l)
	}
}

// Spec describes the neighbor requirements of a potential model.
type Spec struct {
	// Rcut is the model cutoff radius in Angstrom.
	Rcut float64
	// Skin is the buffer region added to Rcut when building lists so the
	// list stays valid between rebuilds (the paper uses 2 A, rebuilt
	// every 50 steps).
	Skin float64
	// Sel is the cutoff number of neighbors per type (the paper uses
	// {46, 92} for water O/H and {500} for copper).
	Sel []int
}

// RcutBuild returns the radius used for list construction.
func (s Spec) RcutBuild() float64 { return s.Rcut + s.Skin }

// Stride returns the padded neighbor capacity per atom, sum of Sel.
func (s Spec) Stride() int {
	n := 0
	for _, v := range s.Sel {
		n += v
	}
	return n
}

// Entry is one AoS neighbor record: the structure of Fig. 2(c) before
// compression.
type Entry struct {
	Type  int
	Dist  float64
	Index int
}

// List is a raw neighbor list for the first Nloc atoms of a configuration:
// the AoS layout the baseline DeePMD-kit consumed. Build orders each row by
// (type, ⌊dist·1e8⌋, index), the order of Encode's keys, at its own
// distances; consumers that only need the set may ignore the order. Rows
// are views into one packed arena (built by Build), so the whole list is
// two allocations regardless of atom count; rows must not be appended to
// in place.
type List struct {
	Nloc    int
	Entries [][]Entry
}

// MaxNeighbors returns the largest per-atom neighbor count in the list.
func (l *List) MaxNeighbors() int {
	m := 0
	for _, e := range l.Entries {
		if len(e) > m {
			m = len(e)
		}
	}
	return m
}

// displacement returns r_j - r_i, minimum-imaged when box != nil.
func displacement(pos []float64, i, j int, box *Box) [3]float64 {
	d := [3]float64{
		pos[3*j] - pos[3*i],
		pos[3*j+1] - pos[3*i+1],
		pos[3*j+2] - pos[3*i+2],
	}
	if box != nil {
		box.MinImage(&d)
	}
	return d
}
