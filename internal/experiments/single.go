package experiments

import (
	"fmt"
	"math"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/perf"
)

// Fig3Result reproduces Fig. 3: the percent-stacked operator-time
// breakdown (GEMM / TANH / SLICE / CUSTOM / Others) for copper and water
// in both precisions. The paper's shape: GEMM dominates everywhere, with
// a larger share for copper (74%/72%) than water (63%/62%).
type Fig3Result struct {
	Columns []Fig3Column
}

// Fig3Column is one bar of the chart, plus the kernel-family attribution
// of its GEMM share: the fraction of GEMM FLOPs each internal/tensor tier
// served (strip / dot / naive) — a count, not a timing.
type Fig3Column struct {
	Label     string
	Breakdown map[string]float64
	Tiers     map[string]float64
}

// Fig3 measures the breakdown by running a few force evaluations of each
// configuration with the perf counter attached.
func Fig3(sc Scale, steps int) (*Fig3Result, error) {
	res := &Fig3Result{}

	type variant struct {
		label string
		cfg   core.Config
		water bool
	}
	variants := []variant{
		{"Cu-Double", copperModelConfig(sc), false},
		{"Cu-Mixed", copperModelConfig(sc), false},
		{"H2O-Double", waterModelConfig(sc), true},
		{"H2O-Mixed", waterModelConfig(sc), true},
	}
	for vi, v := range variants {
		model, err := core.New(v.cfg)
		if err != nil {
			return nil, err
		}
		var pos []float64
		var types []int
		var list listAndBox
		if v.water {
			p, t, l, b, err := waterBox(&v.cfg, waterNX(sc), 1)
			if err != nil {
				return nil, err
			}
			pos, types, list = p, t, listAndBox{l, b}
		} else {
			p, t, l, b, err := copperBox(&v.cfg, copperNX(sc))
			if err != nil {
				return nil, err
			}
			pos, types, list = p, t, listAndBox{l, b}
		}
		ctr := perf.NewCounter()
		mixed := vi%2 == 1
		var out core.Result
		if mixed {
			ev := core.NewEvaluator[float32](model)
			ev.Counter = ctr
			for s := 0; s < steps; s++ {
				if err := ev.Compute(pos, types, len(types), list.l, list.b, &out); err != nil {
					return nil, err
				}
			}
		} else {
			ev := core.NewEvaluator[float64](model)
			ev.Counter = ctr
			for s := 0; s < steps; s++ {
				if err := ev.Compute(pos, types, len(types), list.l, list.b, &out); err != nil {
					return nil, err
				}
			}
		}
		res.Columns = append(res.Columns, Fig3Column{Label: v.label, Breakdown: ctr.Breakdown(), Tiers: ctr.TierShares()})
	}
	return res, nil
}

// String prints the stacked percentages.
func (r *Fig3Result) String() string {
	cats := []string{"GEMM", "TANH", "SLICE", "CUSTOM", "Others"}
	tiers := []perf.Tier{perf.TierStrip, perf.TierDot, perf.TierNaive}
	rows := make([][]string, 0, len(r.Columns))
	for _, c := range r.Columns {
		row := []string{c.Label}
		for _, cat := range cats {
			row = append(row, fmt.Sprintf("%.1f%%", c.Breakdown[cat]))
		}
		for _, tier := range tiers {
			row = append(row, fmt.Sprintf("%.1f%%", 100*c.Tiers[tier.String()]))
		}
		rows = append(rows, row)
	}
	header := append([]string{"Config"}, cats...)
	for _, tier := range tiers {
		header = append(header, "GEMM FLOPs "+tier.String())
	}
	return "Fig 3: operator time breakdown (paper: GEMM 74/72/63/62% for Cu-D/Cu-M/H2O-D/H2O-M) and the kernel tier serving the GEMM FLOPs\n" +
		table(header, rows)
}

// MixedResult reproduces Sec. 7.1.3 / Sec. 5.2.3: accuracy and resource
// deviations of the mixed-precision model relative to double precision.
// Paper values for real water: 0.32 meV/molecule energy deviation, 0.029
// eV/A force RMSD, ~1.5x speed, ~50% memory.
type MixedResult struct {
	Atoms             int
	EnergyDevPerMol   float64 // eV
	ForceRMSD         float64 // eV/A
	SpeedupVsDouble   float64
	MemoryRatio       float64 // mixed arena bytes / double arena bytes
	DoubleTimePerEval time.Duration
	MixedTimePerEval  time.Duration
}

// Mixed measures the double/mixed contrast on a water box.
func Mixed(sc Scale, reps int) (*MixedResult, error) {
	cfg := waterModelConfig(sc)
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	pos, types, list, box, err := waterBox(&cfg, waterNX(sc), 2)
	if err != nil {
		return nil, err
	}
	n := len(types)
	evD := core.NewEvaluator[float64](model)
	evM := core.NewEvaluator[float32](model)

	var rd, rm core.Result
	if err := evD.Compute(pos, types, n, list, box, &rd); err != nil {
		return nil, err
	}
	if err := evM.Compute(pos, types, n, list, box, &rm); err != nil {
		return nil, err
	}
	var rmsd float64
	for i := 0; i < 3*n; i++ {
		d := rd.Force[i] - rm.Force[i]
		rmsd += d * d
	}
	rmsd = math.Sqrt(rmsd / float64(3*n))

	timeEval := func(f func() error) (time.Duration, error) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(reps), nil
	}
	td, err := timeEval(func() error { return evD.Compute(pos, types, n, list, box, &rd) })
	if err != nil {
		return nil, err
	}
	tm, err := timeEval(func() error { return evM.Compute(pos, types, n, list, box, &rm) })
	if err != nil {
		return nil, err
	}

	nmol := n / 3
	return &MixedResult{
		Atoms:             n,
		EnergyDevPerMol:   math.Abs(rd.Energy-rm.Energy) / float64(nmol),
		ForceRMSD:         rmsd,
		SpeedupVsDouble:   float64(td) / float64(tm),
		MemoryRatio:       float64(evM.ArenaBytes()) / float64(evD.ArenaBytes()),
		DoubleTimePerEval: td,
		MixedTimePerEval:  tm,
	}, nil
}

// String prints the comparison.
func (r *MixedResult) String() string {
	return fmt.Sprintf(`Sec 7.1.3: mixed vs double precision, water %d atoms
  energy deviation    %.4f meV/molecule   (paper: 0.32)
  force RMSD          %.4f eV/A           (paper: 0.029)
  speedup             %.2fx               (paper: ~1.5x on GPU; scalar CPU f32 has no FLOP advantage)
  network memory      %.0f%% of double     (paper: ~50%%)
  time/eval           double %s ms, mixed %s ms
`, r.Atoms, r.EnergyDevPerMol*1000, r.ForceRMSD, r.SpeedupVsDouble, r.MemoryRatio*100,
		ms(r.DoubleTimePerEval), ms(r.MixedTimePerEval))
}

// SingleResult reproduces Sec. 7.1.1's aggregate contrast: the baseline
// execution strategy vs the optimized one vs optimized mixed, per force
// evaluation (paper: 7.5x double, 11.3x mixed, including all effects).
type SingleResult struct {
	Atoms    int
	Baseline time.Duration
	Double   time.Duration
	Mixed    time.Duration
}

// Single measures whole-evaluation times of the three strategies.
func Single(sc Scale, reps int) (*SingleResult, error) {
	cfg := waterModelConfig(sc)
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	pos, types, list, box, err := waterBox(&cfg, waterNX(sc), 5)
	if err != nil {
		return nil, err
	}
	n := len(types)
	var out core.Result

	res := &SingleResult{Atoms: n}
	base := core.NewBaselineEvaluator(model)
	start := time.Now()
	for r := 0; r < reps; r++ {
		if err := base.Compute(pos, types, n, list, box, &out); err != nil {
			return nil, err
		}
	}
	res.Baseline = time.Since(start) / time.Duration(reps)

	evD := core.NewEvaluator[float64](model)
	start = time.Now()
	for r := 0; r < reps; r++ {
		if err := evD.Compute(pos, types, n, list, box, &out); err != nil {
			return nil, err
		}
	}
	res.Double = time.Since(start) / time.Duration(reps)

	evM := core.NewEvaluator[float32](model)
	start = time.Now()
	for r := 0; r < reps; r++ {
		if err := evM.Compute(pos, types, n, list, box, &out); err != nil {
			return nil, err
		}
	}
	res.Mixed = time.Since(start) / time.Duration(reps)
	return res, nil
}

// String prints the aggregate speedups.
func (r *SingleResult) String() string {
	return fmt.Sprintf(`Sec 7.1.1: whole-evaluation strategies, water %d atoms
  baseline (2018 DeePMD-kit strategy)  %s ms
  optimized double                     %s ms   (%.1fx vs baseline; paper 7.5x w/ GPU)
  optimized mixed                      %s ms   (%.1fx vs baseline; paper 11.3x w/ GPU)
`, r.Atoms, ms(r.Baseline), ms(r.Double), float64(r.Baseline)/float64(r.Double),
		ms(r.Mixed), float64(r.Baseline)/float64(r.Mixed))
}

type listAndBox struct {
	l *neighbor.List
	b *neighbor.Box
}

func waterNX(sc Scale) int {
	if sc == Full {
		return 6
	}
	return 4
}

func copperNX(sc Scale) int {
	if sc == Full {
		return 6
	}
	return 4
}
