package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/descriptor"
	"deepmd-go/internal/neighbor"
)

// teamFrame is one input of the worker-sweep tests.
type teamFrame struct {
	name  string
	pos   []float64
	types []int
	nloc  int
	list  *neighbor.List
	box   *neighbor.Box
}

// teamCluster places nall atoms of two types at random in an open cube of
// the given edge; the first nloc are local, the rest ghosts.
func teamCluster(t *testing.T, name string, seed int64, nall, nloc int, edge float64, cfg *Config) teamFrame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pos := make([]float64, 3*nall)
	types := make([]int, nall)
	for i := range types {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = rng.Float64() * edge
		}
		types[i] = rng.Intn(cfg.NumTypes())
	}
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, pos, types, nloc, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return teamFrame{name, pos, types, nloc, list, nil}
}

// teamModel is a two-type model whose first section (4 slots) overflows on
// the test clusters while the second (10) keeps padding.
func teamModel(t *testing.T) *Model {
	t.Helper()
	cfg := TinyConfig(2)
	cfg.Sel = []int{4, 10}
	cfg.ChunkSize = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	return m
}

func teamFrames(t *testing.T, cfg *Config) []teamFrame {
	t.Helper()
	pos, types, list, box := testSystem(t, 21, 50, cfg)
	frames := []teamFrame{
		{"periodic", pos, types, 50, list, box},
		teamCluster(t, "ghosts", 22, 45, 27, 9, cfg),
		teamCluster(t, "fewer-than-blocks", 23, 30, descriptor.ProdBlocks-5, 7, cfg),
		teamCluster(t, "one-atom", 24, 12, 1, 4, cfg),
	}

	// The premises the names promise: a full section with neighbors dropped,
	// a section with padding left, ghosts that receive force.
	var sc descriptor.Scratch
	dcfg := descriptor.Config{Rcut: cfg.Rcut, RcutSmth: cfg.RcutSmth, Sel: cfg.Sel}
	env, err := sc.Environment(nil, dcfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	full, padded := false, false
	for k := range env.Off[1:] {
		n := env.Off[k+1] - env.Off[k]
		full = full || n == cfg.Sel[k%len(cfg.Sel)]
		padded = padded || n < cfg.Sel[k%len(cfg.Sel)]
	}
	if !full || !padded || env.Fmt.Overflow == 0 {
		t.Fatalf("periodic frame: full section %v, padded section %v, overflow %d", full, padded, env.Fmt.Overflow)
	}
	return frames
}

// The whole force call — Environment, sweep, products — runs on the worker
// budget and must give the same bits at every budget: energy, per-atom
// energies, forces (ghosts included) and virial, for every strategy and
// precision, on frames that exercise the block cut's edges.
func TestTeamWorkersBitIdentical(t *testing.T) {
	m := teamModel(t)
	frames := teamFrames(t, &m.Cfg)
	for _, prec := range []Precision{Double, Mixed} {
		for _, strat := range []Strategy{StrategyBatched, StrategyCompressed, StrategyPerAtom} {
			t.Run(fmt.Sprintf("%v/%v", prec, strat), func(t *testing.T) {
				var ref []Result
				for _, workers := range []int{1, 2, 3, 7} {
					e, err := NewEngine(m, Plan{Precision: prec, Strategy: strat, Workers: workers, MaxConcurrency: 1})
					if err != nil {
						t.Fatal(err)
					}
					c, err := e.newComputer()
					if err != nil {
						t.Fatal(err)
					}

					// Twice through one evaluator: the second pass runs on
					// the first one's rows (stale-row clears, rT reuse)
					// with a different frame in between.
					for pass := 0; pass < 2; pass++ {
						for fi, f := range frames {
							var out Result
							if err := c.Compute(f.pos, f.types, f.nloc, f.list, f.box, &out); err != nil {
								t.Fatal(err)
							}
							if workers == 1 && pass == 0 {
								ref = append(ref, out)
								if f.nloc < len(f.types) {
									ghostForce := 0.0
									for _, v := range out.Force[3*f.nloc:] {
										ghostForce += math.Abs(v)
									}
									if ghostForce == 0 {
										t.Fatalf("%s: no force on ghosts", f.name)
									}
								}
								continue
							}
							requireSameResult(t, fmt.Sprintf("%s workers=%d pass=%d", f.name, workers, pass), &out, &ref[fi])
						}
					}
				}
			})
		}
	}
}

// The force call reads a neighbor row as a set: the keys are unique, so the formatted table, and with it every bit of the Result, is
// the same whether a row arrives as Build sorted it, reversed or shuffled —
// at the build positions and after drift has reordered the distances, on
// frames with ghosts and an overflowing section.
func TestComputeIndependentOfListRowOrder(t *testing.T) {
	m := teamModel(t)
	frames := teamFrames(t, &m.Cfg)
	rng := rand.New(rand.NewSource(25))
	permuted := func(l *neighbor.List, permute func([]int32)) *neighbor.List {
		p := &neighbor.List{Nloc: l.Nloc, Entries: make([][]int32, l.Nloc), Types: l.Types}
		for i, row := range l.Entries {
			p.Entries[i] = slices.Clone(row)
			permute(p.Entries[i])
		}
		return p
	}
	for _, prec := range []Precision{Double, Mixed} {
		for _, strat := range []Strategy{StrategyBatched, StrategyCompressed} {
			t.Run(fmt.Sprintf("%v/%v", prec, strat), func(t *testing.T) {
				e, err := NewEngine(m, Plan{Precision: prec, Strategy: strat, Workers: 2, MaxConcurrency: 1})
				if err != nil {
					t.Fatal(err)
				}
				c, err := e.newComputer()
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range frames {
					drifted := slices.Clone(f.pos)
					for k := range drifted {
						drifted[k] += 0.1 * rng.NormFloat64()
					}
					for _, pos := range [][]float64{f.pos, drifted} {
						var want Result
						if err := c.Compute(pos, f.types, f.nloc, f.list, f.box, &want); err != nil {
							t.Fatal(err)
						}
						for _, pm := range []struct {
							name    string
							permute func([]int32)
						}{
							{"reversed", slices.Reverse[[]int32]},
							{"shuffled", func(r []int32) { rng.Shuffle(len(r), func(a, b int) { r[a], r[b] = r[b], r[a] }) }},
						} {
							var got Result
							if err := c.Compute(pos, f.types, f.nloc, permuted(f.list, pm.permute), f.box, &got); err != nil {
								t.Fatal(err)
							}
							requireSameResult(t, fmt.Sprintf("%s %s rows", f.name, pm.name), &got, &want)
						}
					}
				}
			})
		}
	}
}

// A non-finite coordinate must reach the error path, not the key encoder,
// and when several atom blocks fail the error names the lowest atom at
// every worker count.
func TestTeamNonFiniteCoordinateError(t *testing.T) {
	m := newTestModel(t, 2)
	pos, types, list, box := testSystem(t, 31, 50, &m.Cfg)
	n := len(types)
	for _, tc := range []struct {
		name string
		bad  float64
		atom int
	}{
		{"NaN/first", math.NaN(), 0},
		{"NaN/last", math.NaN(), n - 1},
		{"Inf/first", math.Inf(1), 0},
		{"Inf/last", math.Inf(-1), n - 1},
	} {
		// The bad atom fails its own row and the row of every atom that
		// lists it; the lowest of those is what every budget must report.
		lowest := tc.atom
		for i, nbrs := range list.Entries {
			for _, j := range nbrs {
				if int(j) == tc.atom && i < lowest {
					lowest = i
				}
			}
		}
		want := fmt.Sprintf("atom %d:", lowest)
		bad := append([]float64(nil), pos...)
		bad[3*tc.atom+1] = tc.bad
		for _, workers := range []int{1, 2, 7} {
			cfg := m.Cfg
			cfg.Workers = workers
			ev := NewEvaluator[float64](&Model{Cfg: cfg, Embed: m.Embed, Fit: m.Fit})
			var out Result
			err := ev.Compute(bad, types, n, list, box, &out)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s workers=%d: error %v, want one naming %q", tc.name, workers, err, want)
			}
			// The evaluator is usable again, with the bits of a fresh one.
			var again, fresh Result
			if err := ev.Compute(pos, types, n, list, box, &again); err != nil {
				t.Fatal(err)
			}
			if err := NewEvaluator[float64](m).Compute(pos, types, n, list, box, &fresh); err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%s workers=%d after the error", tc.name, workers), &again, &fresh)
		}
	}
}

// A parallel force call starts one goroutine per extra worker and nothing
// else — one allocation each, the go statement's closure — where the chunk
// sweep alone used to cost 5 at Workers 2 (a WaitGroup and two closures with
// their captured variables).
func TestComputeWorkers2Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := TinyConfig(2)
	cfg.Workers = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator[float32](m)
	pos, types, list, box := testSystem(t, 5, 40, &cfg)
	var out Result
	for i := 0; i < 3; i++ {
		if err := ev.Compute(pos, types, 40, list, box, &out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ev.Compute(pos, types, 40, list, box, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Workers-2 Compute allocates %.1f objects per call, want <= 1", allocs)
	}
}

// The same contract where the balanced cut and the claim order do their
// work: at ChunkSize 16 a frame whose three types need one, two and five
// whole chunks is cut into 1, 4 and 5 (its second type into a multiple of
// sweepCut, its third into eight parts of 16 rows, which five hold), and
// its chunks are claimed tallest first. The bits are those of one worker
// at every budget.
func TestTeamWorkersBitIdenticalSplitTypes(t *testing.T) {
	cfg := TinyConfig(3)
	cfg.ChunkSize = 16
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	cluster := func(name string, seed int64, edge float64, ghosts int, counts ...int) teamFrame {
		rng := rand.New(rand.NewSource(seed))
		types := typesOf(counts...)
		nloc := len(types)
		for i := 0; i < ghosts; i++ {
			types = append(types, rng.Intn(3))
		}
		pos := make([]float64, 3*len(types))
		for i := range pos {
			pos[i] = rng.Float64() * edge
		}
		list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}, pos, types, nloc, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return teamFrame{name, pos, types, nloc, list, nil}
	}
	frames := []teamFrame{
		cluster("1+2+5 chunks", 41, 12, 15, 10, 30, 70),
		cluster("small", 42, 8, 5, 20, 3, 17),
	}
	jobs, err := chunkJobs(nil, make([][]int, 3), frames[0].types, frames[0].nloc, cfg.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cutHeights(jobs, 3), "10 | 8 8 8 6 | 16 16 16 16 6"; got != want {
		t.Fatalf("premise: the first frame is cut [%s], want [%s]", got, want)
	}

	for _, prec := range []Precision{Double, Mixed} {
		for _, strat := range []Strategy{StrategyBatched, StrategyCompressed} {
			t.Run(fmt.Sprintf("%v/%v", prec, strat), func(t *testing.T) {
				var ref []Result
				for _, workers := range []int{1, 2, 3, 7} {
					e, err := NewEngine(m, Plan{Precision: prec, Strategy: strat, Workers: workers, MaxConcurrency: 1})
					if err != nil {
						t.Fatal(err)
					}
					c, err := e.newComputer()
					if err != nil {
						t.Fatal(err)
					}
					for fi, f := range frames {
						var out Result
						if err := c.Compute(f.pos, f.types, f.nloc, f.list, f.box, &out); err != nil {
							t.Fatal(err)
						}
						if workers == 1 {
							ref = append(ref, out)
							continue
						}
						requireSameResult(t, fmt.Sprintf("%s workers=%d", f.name, workers), &out, &ref[fi])
					}
				}
			})
		}
	}
}
