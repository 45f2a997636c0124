// Package core implements the Deep Potential model itself: the paper's
// primary contribution. A Model holds per-type-pair embedding nets and
// per-type fitting nets (double-precision master weights); Evaluators
// execute the full pipeline of Fig. 2 — Environment, embedding, descriptor
// contraction, fitting, backward passes, ProdForce, ProdVirial — in either
// double or mixed precision, over the optimized (fused, sorted, padded,
// arena-backed) path or the baseline (unfused, allocating, branching) path
// of the 2018 DeePMD-kit.
package core

import (
	"fmt"

	"deepmd-go/internal/units"
)

// Config describes a Deep Potential model.
type Config struct {
	// TypeNames are the chemical species, e.g. ["O", "H"].
	TypeNames []string
	// Masses are atomic masses in amu per type.
	Masses []float64
	// Rcut is the descriptor cutoff radius in Angstrom.
	Rcut float64
	// RcutSmth is where the cutoff switching starts.
	RcutSmth float64
	// Skin is the neighbor-list buffer region (the paper uses 2 A).
	Skin float64
	// Sel is the cutoff number of neighbors per type.
	Sel []int
	// EmbedWidths are the embedding-net hidden widths (paper: 25, 50, 100).
	EmbedWidths []int
	// FitWidths are the fitting-net hidden widths (paper: 240, 240, 240).
	FitWidths []int
	// MAxis is the number of axis neurons M' (paper: 16).
	MAxis int
	// AtomEnerBias is an optional per-type energy shift placed in the
	// fitting-net head bias so untrained models predict sensible means.
	AtomEnerBias []float64
	// RepA and RepRcut enable the optional analytic core-repulsion prior
	// phi(r) = RepA*(1-r/RepRcut)^3/r for r < RepRcut (the DP+ZBL-style
	// safeguard; see repulsion.go). Zero disables it. RepRcut should lie
	// below the shortest physically sampled distance.
	RepA, RepRcut float64
	// ChunkSize is the most atoms batched through the network at once;
	// it bounds peak memory independent of system size (the arenas are
	// sized by it). It is an upper bound, not the height of every chunk: a
	// type with more atoms than this is cut into equal, aligned chunks for
	// the worker sweep's balance (chunkJobs in frames.go) — 432 hydrogens
	// at the default 256 run as 112, 112, 112, 96. The cut reads nothing
	// but the frame and this value, never Workers; per-atom energies,
	// forces and virial do not depend on it (TestChunkSizeBitIdentical).
	ChunkSize int
	// Workers is the parallelism budget of one evaluation (the CPU
	// stand-in for GPU parallelism). <= 1 means serial. With enough atom
	// chunks the evaluator fans the chunks out over this many goroutines;
	// when the chunk loop degenerates to serial (a system too small to
	// fill the pool) the same budget moves inside the SIMD GEMM
	// kernels, which partition output row strips across goroutines
	// (tensor.Opts.Workers) with bit-identical results at any count. Pass
	// the same value to neighbor.Build (md.Options.Workers /
	// domain.Options.Workers thread it for the MD engines) so the list
	// rebuild keeps pace with the parallel evaluator.
	Workers int
	// Seed initializes the network weights.
	Seed int64
}

// NumTypes returns the number of atom types.
func (c *Config) NumTypes() int { return len(c.TypeNames) }

// M returns the embedding output width.
func (c *Config) M() int { return c.EmbedWidths[len(c.EmbedWidths)-1] }

// Stride returns the padded neighbor slots per atom (sum of Sel).
func (c *Config) Stride() int {
	n := 0
	for _, s := range c.Sel {
		n += s
	}
	return n
}

// DescriptorDim returns the flattened descriptor size M * MAxis.
func (c *Config) DescriptorDim() int { return c.M() * c.MAxis }

// Validate checks internal consistency and fills defaults.
func (c *Config) Validate() error {
	nt := c.NumTypes()
	if nt == 0 {
		return fmt.Errorf("core: no atom types")
	}
	if len(c.Masses) != nt {
		return fmt.Errorf("core: %d masses for %d types", len(c.Masses), nt)
	}
	if len(c.Sel) != nt {
		return fmt.Errorf("core: %d sel entries for %d types", len(c.Sel), nt)
	}
	if c.Rcut <= 0 || c.RcutSmth < 0 || c.RcutSmth >= c.Rcut {
		return fmt.Errorf("core: invalid cutoff %g / %g", c.RcutSmth, c.Rcut)
	}
	if len(c.EmbedWidths) == 0 || len(c.FitWidths) == 0 {
		return fmt.Errorf("core: empty network widths")
	}
	if c.MAxis <= 0 || c.MAxis > c.M() {
		return fmt.Errorf("core: MAxis %d outside (0, %d]", c.MAxis, c.M())
	}
	if c.AtomEnerBias != nil && len(c.AtomEnerBias) != nt {
		return fmt.Errorf("core: %d energy biases for %d types", len(c.AtomEnerBias), nt)
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return nil
}

// WaterConfig returns the paper's liquid-water model geometry: rc = 6 A,
// sel = {O: 46, H: 92}, embedding 25-50-100, fitting 240^3, 16 axis
// neurons (Sec. 6.1).
func WaterConfig() Config {
	return Config{
		TypeNames:   []string{"O", "H"},
		Masses:      []float64{units.MassO, units.MassH},
		Rcut:        6.0,
		RcutSmth:    0.5,
		Skin:        2.0,
		Sel:         []int{46, 92},
		EmbedWidths: []int{25, 50, 100},
		FitWidths:   []int{240, 240, 240},
		MAxis:       16,
		Seed:        1,
	}
}

// CopperConfig returns the paper's copper model geometry: rc = 8 A,
// sel = {Cu: 500}, same network sizes (Sec. 6.1).
func CopperConfig() Config {
	return Config{
		TypeNames:   []string{"Cu"},
		Masses:      []float64{units.MassCu},
		Rcut:        8.0,
		RcutSmth:    2.0,
		Skin:        2.0,
		Sel:         []int{500},
		EmbedWidths: []int{25, 50, 100},
		FitWidths:   []int{240, 240, 240},
		MAxis:       16,
		Seed:        1,
	}
}

// TinyConfig returns a scaled-down model for tests: same topology, small
// widths so the suite runs in seconds on one CPU core.
func TinyConfig(ntypes int) Config {
	names := make([]string, ntypes)
	masses := make([]float64, ntypes)
	sel := make([]int, ntypes)
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
		masses[i] = 10 + float64(i)
		sel[i] = 12
	}
	return Config{
		TypeNames:   names,
		Masses:      masses,
		Rcut:        4.0,
		RcutSmth:    1.0,
		Skin:        1.0,
		Sel:         sel,
		EmbedWidths: []int{4, 8, 16},
		FitWidths:   []int{24, 24, 24},
		MAxis:       4,
		ChunkSize:   8,
		Seed:        7,
	}
}
