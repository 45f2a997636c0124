package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
)

// Table3Result reproduces Table 3: per-operator time of the baseline
// customized operators vs the optimized ones, on a water configuration.
// The paper measures a CPU baseline against GPU kernels (130x/38x/17x);
// here both run on the CPU, so the expected shape is optimized >> baseline
// with Environment showing the largest gain (it contains the sort).
type Table3Result struct {
	Atoms int
	Rows  []Table3Row
}

// Table3Row is one operator's timing.
type Table3Row struct {
	Op        string
	Baseline  time.Duration
	Optimized time.Duration
}

// Speedup returns baseline/optimized.
func (r Table3Row) Speedup() float64 {
	if r.Optimized == 0 {
		return 0
	}
	return float64(r.Baseline) / float64(r.Optimized)
}

// Table3 measures the three customized operators. nx is the water box
// edge in molecules; reps averages repetitions.
func Table3(sc Scale, nx, reps int) (*Table3Result, error) {
	cfg := waterModelConfig(sc)
	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	pos, types, list, box, err := waterBox(&cfg, nx, 1)
	if err != nil {
		return nil, err
	}
	n := len(types)
	res := &Table3Result{Atoms: n}

	// Prepare a shared environment output and a random network gradient
	// for the force/virial operators.
	var sc2 descriptor.Scratch
	env, err := sc2.Environment(nil, dcfg, pos, types, list, box)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(2))
	nd := make([]float64, len(env.R))
	for i := range nd {
		nd[i] = rng.NormFloat64()
	}
	force := make([]float64, 3*n)

	timeIt := func(f func()) time.Duration {
		start := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		return time.Since(start) / time.Duration(reps)
	}

	var scratch descriptor.Scratch
	envBase := timeIt(func() {
		if _, err := descriptor.EnvironmentBaseline(nil, dcfg, pos, types, list, box); err != nil {
			panic(err)
		}
	})
	envOpt := timeIt(func() {
		if _, err := scratch.Environment(nil, dcfg, pos, types, list, box); err != nil {
			panic(err)
		}
	})
	res.Rows = append(res.Rows, Table3Row{"Environment", envBase, envOpt})

	virBase := timeIt(func() { descriptor.ProdVirialBaseline(nil, nd, env) })
	virOpt := timeIt(func() { descriptor.ProdVirial(nil, nd, env) })
	res.Rows = append(res.Rows, Table3Row{"ProdVirial", virBase, virOpt})

	frcBase := timeIt(func() { descriptor.ProdForceBaseline(nil, nd, env, n) })
	frcOpt := timeIt(func() {
		clear(force)
		descriptor.ProdForce(nil, nd, env, force)
	})
	res.Rows = append(res.Rows, Table3Row{"ProdForce", frcBase, frcOpt})
	return res, nil
}

// String prints the table in the paper's format.
func (r *Table3Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Op, ms(row.Baseline), ms(row.Optimized), fmt.Sprintf("%.1fx", row.Speedup()),
		})
	}
	return fmt.Sprintf("Table 3: customized operators, water %d atoms (paper: 130x/38x/17x on GPU)\n", r.Atoms) +
		table([]string{"Operator", "Baseline[ms]", "Optimized[ms]", "Speedup"}, rows)
}

// AblationSort isolates the key format vs struct-sort choice of
// Sec. 5.2.2 on real neighbor data. Both sides refresh every distance from
// the positions and sort at them: the struct sort over AoS records
// (FormatBaseline), the key format as the per-step Environment runs it
// (Scratch.Rows).
func AblationSort(sc Scale, nx, reps int) (structSort, keyFormat time.Duration, err error) {
	cfg := waterModelConfig(sc)
	pos, _, list, box, err := waterBox(&cfg, nx, 4)
	if err != nil {
		return 0, 0, err
	}
	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Sel: cfg.Sel}
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := neighbor.FormatBaseline(spec, list, pos, box); err != nil {
			return 0, 0, err
		}
	}
	structSort = time.Since(start) / time.Duration(reps)
	var scratch descriptor.Scratch
	var ws descriptor.RowScratch
	start = time.Now()
	for r := 0; r < reps; r++ {
		scratch.Begin(dcfg, list)
		if _, err := scratch.Rows(&ws, dcfg, pos, list, box, 0, list.Nloc); err != nil {
			return 0, 0, err
		}
	}
	keyFormat = time.Since(start) / time.Duration(reps)
	return structSort, keyFormat, nil
}
