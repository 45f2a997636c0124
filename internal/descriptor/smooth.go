// Package descriptor implements the customized operators of the Deep
// Potential pipeline: the smooth cutoff function, the Environment operator
// that builds the environment matrix R~ and, per neighbor slot, the
// geometry (d, s'(r)) its position derivative is a closed form of, and the
// ProdForce / ProdVirial operators that rebuild that derivative slot by
// slot and contract the network gradient dE/dR~ with it into atomic forces
// and the virial tensor.
//
// Each operator exists in two variants mirroring Sec. 5.2.2 / Table 3:
// a baseline variant (struct sort, per-call allocation, type branching in
// the inner loop — the CPU implementation of the 2018 DeePMD-kit) and an
// optimized variant (compressed 64-bit keys, reused scratch buffers,
// branch-free fixed-stride loops).
package descriptor

import "math"

// Config carries the geometric parameters of the descriptor.
type Config struct {
	// Rcut is the cutoff radius; the environment matrix vanishes smoothly
	// at Rcut (6 A for water, 8 A for copper in the paper).
	Rcut float64
	// RcutSmth is the radius where the smooth switching begins; below it
	// s(r) = 1/r exactly.
	RcutSmth float64
	// Sel is the per-type cutoff number of neighbors.
	Sel []int
}

// Stride returns the padded neighbors per atom.
func (c Config) Stride() int {
	n := 0
	for _, s := range c.Sel {
		n += s
	}
	return n
}

// Smooth evaluates the switched inverse distance
//
//	s(r) = 1/r                                   r <  rmin
//	s(r) = 1/r * (cos(pi*(r-rmin)/(rmax-rmin))/2 + 1/2)   rmin <= r < rmax
//	s(r) = 0                                     r >= rmax
//
// and its derivative ds/dr. This is the weighting that makes the
// environment matrix, and therefore energies and forces, continuous as
// neighbors cross the cutoff sphere. On 0 < r < rmax, ds/dr < 0 strictly
// (both terms of the switched branch are <= 0 and never both 0), which is
// what lets a zero in EnvOut.Geo mark an empty slot.
func Smooth(r, rmin, rmax float64) (s, ds float64) {
	if r >= rmax || r <= 0 {
		return 0, 0
	}
	inv := 1 / r
	if r < rmin {
		return inv, -inv * inv
	}
	u := (r - rmin) / (rmax - rmin)
	w := 0.5*math.Cos(math.Pi*u) + 0.5
	dw := -0.5 * math.Pi * math.Sin(math.Pi*u) / (rmax - rmin)
	return inv * w, -inv*inv*w + inv*dw
}
