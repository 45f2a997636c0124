// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment returns a structured result with a
// String method that prints rows shaped like the paper's; cmd/dpbench is a
// thin wrapper over this package. Speed is measured by `go run ./bench`,
// not here: the timings an experiment prints illustrate its table.
//
// Experiments that need Summit-scale hardware combine local measurement
// (the algorithmic contrasts: baseline vs optimized operators, double vs
// mixed precision) with the calibrated
// performance model of internal/perfmodel (the full-machine scaling
// numbers), per the substitution policy in DESIGN.md.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks systems and networks so every experiment finishes in
	// seconds on one CPU core (used by tests).
	Quick Scale = iota
	// Full uses the paper's network geometry with the largest system
	// that remains practical on a CPU.
	Full
)

// waterModelConfig returns a water-like two-type model at the given scale.
func waterModelConfig(sc Scale) core.Config {
	if sc == Full {
		cfg := core.WaterConfig()
		cfg.ChunkSize = 128
		return cfg
	}
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut = 4.0
	cfg.RcutSmth = 0.5
	cfg.Skin = 1.0
	cfg.Sel = []int{12, 24}
	return cfg
}

// copperModelConfig returns a copper-like one-type model at the given
// scale.
func copperModelConfig(sc Scale) core.Config {
	if sc == Full {
		cfg := core.CopperConfig()
		cfg.ChunkSize = 64
		return cfg
	}
	cfg := core.TinyConfig(1)
	cfg.TypeNames = []string{"Cu"}
	cfg.Masses = []float64{units.MassCu}
	cfg.Rcut = 5.0
	cfg.RcutSmth = 2.0
	cfg.Skin = 1.0
	// Copper's padded neighbor capacity is much larger than water's
	// relative to the box (500 vs 138 in the paper); Quick keeps the same
	// character so the Fig. 3 GEMM-share ordering holds.
	cfg.Sel = []int{110}
	return cfg
}

// waterBox builds a water system and its raw neighbor list for a model.
func waterBox(cfg *core.Config, nx int, seed int64) ([]float64, []int, *neighbor.List, *neighbor.Box, error) {
	cell := lattice.Water(nx, nx, nx, lattice.WaterSpacing, seed)
	// The box must satisfy the minimum-image requirement.
	for k := 0; k < 3; k++ {
		if cell.Box.L[k] < 2*(cfg.Rcut+cfg.Skin) {
			return nil, nil, nil, nil, fmt.Errorf("experiments: water box %d^3 too small for rcut %.1f", nx, cfg.Rcut)
		}
	}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, cfg.Workers)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return cell.Pos, cell.Types, list, &cell.Box, nil
}

// copperBox builds an FCC copper system and list for a model.
func copperBox(cfg *core.Config, nx int) ([]float64, []int, *neighbor.List, *neighbor.Box, error) {
	cell := lattice.FCC(nx, nx, nx, lattice.CuLatticeConst)
	lattice.Perturb(cell, 0.05, 3)
	for k := 0; k < 3; k++ {
		if cell.Box.L[k] < 2*(cfg.Rcut+cfg.Skin) {
			return nil, nil, nil, nil, fmt.Errorf("experiments: copper box %d^3 too small for rcut %.1f", nx, cfg.Rcut)
		}
	}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, cfg.Workers)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return cell.Pos, cell.Types, list, &cell.Box, nil
}

// table prints an aligned text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		header[i] = strings.Repeat("-", w)
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}
