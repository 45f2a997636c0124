package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// latticeVariant builds one of several distinct physically-spaced systems
// so a batch of frames carries genuinely different configurations (and,
// via nx, different atom counts).
func latticeVariant(t testing.TB, water bool, cfg *Config, nx int, seed int64) ([]float64, []int, *neighbor.List, *neighbor.Box) {
	t.Helper()
	var cell *lattice.System
	if water {
		cell = lattice.Water(nx, nx, nx, lattice.WaterSpacing, seed)
	} else {
		c := lattice.FCC(nx, nx, nx, 3.615)
		lattice.Perturb(c, 0.05, seed)
		cell = c
	}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cell.Pos, cell.Types, list, &cell.Box
}

// requireSameResult asserts bit-identity of two evaluation results.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Energy != want.Energy {
		t.Fatalf("%s: energy %.17g != serial %.17g", label, got.Energy, want.Energy)
	}
	if len(got.Force) != len(want.Force) {
		t.Fatalf("%s: force length %d != %d", label, len(got.Force), len(want.Force))
	}
	for i := range want.Force {
		if math.Float64bits(got.Force[i]) != math.Float64bits(want.Force[i]) {
			t.Fatalf("%s: force[%d] = %g != serial %g", label, i, got.Force[i], want.Force[i])
		}
	}
	for i := range want.AtomEnergy {
		if got.AtomEnergy[i] != want.AtomEnergy[i] {
			t.Fatalf("%s: atomEnergy[%d] differs", label, i)
		}
	}
	if got.Virial != want.Virial {
		t.Fatalf("%s: virial differs", label)
	}
}

// TestComputeBatchBitIdentical is the contract of Engine.ComputeBatch, the
// entry the benchmark harness times: the frames of a batch are evaluated
// one after another on one borrowed evaluator, so every result is bitwise
// a per-frame Compute's at every batch size, for every strategy and
// precision; and a batch holding a frame without a Result is refused
// before any frame is evaluated.
func TestComputeBatchBitIdentical(t *testing.T) {
	for _, sys := range []struct {
		name  string
		water bool
	}{{"water", true}, {"copper", false}} {
		cfg := batchTestConfig(sys.water)
		cfg.ChunkSize = 16 // several chunks per frame, so sweeps interleave frames
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
			t.Fatal(err)
		}

		// Four distinct configurations, two sizes: frames in one batch
		// genuinely differ in content and atom count.
		type system struct {
			pos   []float64
			types []int
			list  *neighbor.List
			box   *neighbor.Box
		}
		var systems []system
		for i, v := range []struct {
			nx   int
			seed int64
		}{{4, 7}, {5, 11}, {4, 13}, {5, 17}} {
			p, ty, l, b := latticeVariant(t, sys.water, &cfg, v.nx, v.seed)
			systems = append(systems, system{p, ty, l, b})
			_ = i
		}

		for _, tc := range []struct {
			name string
			plan Plan
		}{
			{"double-batched", Plan{Strategy: StrategyBatched}},
			{"double-batched-workers2", Plan{Strategy: StrategyBatched, Workers: 2}},
			{"double-compressed", Plan{Strategy: StrategyCompressed}},
			{"mixed-batched", Plan{Precision: Mixed, Strategy: StrategyBatched}},
			{"double-peratom", Plan{Strategy: StrategyPerAtom}},
		} {
			t.Run(sys.name+"/"+tc.name, func(t *testing.T) {
				plan := tc.plan
				plan.MaxConcurrency = 2
				e, err := NewEngine(m, plan)
				if err != nil {
					t.Fatal(err)
				}

				// Serial per-request references on a raw evaluator with
				// the same plan.
				refEv, err := e.newComputer()
				if err != nil {
					t.Fatal(err)
				}
				refs := make([]Result, len(systems))
				for i, s := range systems {
					if err := refEv.Compute(s.pos, s.types, len(s.types), s.list, s.box, &refs[i]); err != nil {
						t.Fatal(err)
					}
				}

				var untouched Result
				refused := []Frame{
					{Pos: systems[0].pos, Types: systems[0].types, Nloc: len(systems[0].types), List: systems[0].list, Box: systems[0].box, Out: &untouched},
					{Pos: systems[1].pos, Types: systems[1].types, Nloc: len(systems[1].types), List: systems[1].list, Box: systems[1].box},
				}
				if err := e.ComputeBatch(refused); err == nil {
					t.Fatal("a frame without a Result was accepted")
				}
				if untouched.Force != nil {
					t.Fatal("a refused batch evaluated its first frame")
				}

				for _, batch := range []int{1, 2, 3, 4} {
					frames := make([]Frame, batch)
					outs := make([]Result, batch)
					for k := 0; k < batch; k++ {
						s := systems[k%len(systems)]
						frames[k] = Frame{Pos: s.pos, Types: s.types, Nloc: len(s.types), List: s.list, Box: s.box, Out: &outs[k]}
					}
					if err := e.ComputeBatch(frames); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < batch; k++ {
						label := fmt.Sprintf("batch=%d frame=%d", batch, k)
						requireSameResult(t, label, &outs[k], &refs[k%len(systems)])
					}
				}
			})
		}
	}
}

// One evaluator keeps one frame's state across calls: alternating
// differently-sized systems through Compute must leave nothing behind in
// it. Every result is compared with a fresh evaluator's.
func TestComputeInterleavedWithBatchesBitIdentical(t *testing.T) {
	cfg := batchTestConfig(true)
	cfg.ChunkSize = 16
	cfg.Workers = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frames []Frame
	for _, v := range []struct {
		nx   int
		seed int64
	}{{4, 7}, {5, 11}, {4, 13}} {
		p, ty, l, b := latticeVariant(t, true, &cfg, v.nx, v.seed)
		frames = append(frames, Frame{Pos: p, Types: ty, Nloc: len(ty), List: l, Box: b})
	}
	refs := make([]Result, len(frames))
	for i, f := range frames {
		if err := NewEvaluator[float64](m).Compute(f.Pos, f.Types, f.Nloc, f.List, f.Box, &refs[i]); err != nil {
			t.Fatal(err)
		}
	}

	ev := NewEvaluator[float64](m)
	for step, si := range []int{1, 0, 2, 2, 0, 1, 0, 1} {
		f := frames[si]
		var out Result
		if err := ev.Compute(f.Pos, f.Types, f.Nloc, f.List, f.Box, &out); err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("step %d (system %d)", step, si), &out, &refs[si])
	}
}

// A baseline-strategy engine serves ComputeBatch like any other: the
// frames evaluated one after another on the one borrowed evaluator,
// matching per-frame calls exactly.
func TestEngineComputeBatchBaselineFallback(t *testing.T) {
	m := newTestModel(t, 2)
	e, err := NewEngine(m, Plan{Strategy: StrategyBaseline})
	if err != nil {
		t.Fatal(err)
	}
	var sysPos [][]float64
	var sysTypes [][]int
	var sysLists []*neighbor.List
	var sysBoxes []*neighbor.Box
	for _, seed := range []int64{3, 5, 9} {
		p, ty, l, b := testSystem(t, seed, 20, &m.Cfg)
		sysPos, sysTypes = append(sysPos, p), append(sysTypes, ty)
		sysLists, sysBoxes = append(sysLists, l), append(sysBoxes, b)
	}
	refs := make([]Result, 3)
	for i := range refs {
		if err := NewBaselineEvaluator(m).Compute(sysPos[i], sysTypes[i], 20, sysLists[i], sysBoxes[i], &refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	outs := make([]Result, 3)
	frames := make([]Frame, 3)
	for i := range frames {
		frames[i] = Frame{Pos: sysPos[i], Types: sysTypes[i], Nloc: 20, List: sysLists[i], Box: sysBoxes[i], Out: &outs[i]}
	}
	if err := e.ComputeBatch(frames); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		requireSameResult(t, fmt.Sprintf("baseline frame %d", i), &outs[i], &refs[i])
	}
}

// ComputeBatch input validation: a frame without a Result buffer is an
// error, an empty batch is a no-op.
func TestComputeBatchValidation(t *testing.T) {
	m := newTestModel(t, 1)
	e, err := NewEngine(m, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ComputeBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	pos, types, list, box := testSystem(t, 1, 12, &m.Cfg)
	frames := []Frame{
		{Pos: pos, Types: types, Nloc: 12, List: list, Box: box, Out: new(Result)},
		{Pos: pos, Types: types, Nloc: 12, List: list, Box: box}, // no Out
	}
	if err := e.ComputeBatch(frames); err == nil {
		t.Fatal("frame without Result accepted")
	}
}

// A failed build must give its slot back: after one injected failure the
// engine still holds MaxConcurrency evaluators at once. A leaked slot
// would leave the last acquire blocked on an empty free-list.
func TestEnginePoolRecoversAfterBuildFailure(t *testing.T) {
	m := newTestModel(t, 1)
	const bound = 3
	e, err := NewEngine(m, Plan{MaxConcurrency: bound})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected build failure")
	failed := false
	e.buildHook = func() (computer, error) {
		if !failed {
			failed = true
			return nil, injected
		}
		return e.newComputer()
	}
	held := make(chan []computer, 1)
	go func() {
		var cs []computer
		// The eager evaluator, then the failing build, then the rest of
		// the pool, with no release in between.
		c, err := e.acquire()
		if err != nil {
			t.Errorf("acquire eager evaluator: %v", err)
		}
		cs = append(cs, c)
		if _, err := e.acquire(); !errors.Is(err, injected) {
			t.Errorf("second acquire err = %v, want the injected failure", err)
		}
		for len(cs) < bound {
			c, err := e.acquire()
			if err != nil {
				t.Errorf("acquire after the failure: %v", err)
				break
			}
			cs = append(cs, c)
		}
		held <- cs
	}()
	select {
	case cs := <-held:
		for _, c := range cs {
			e.release(c)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("could not hold %d evaluators after a failed build: its slot leaked", bound)
	}
	e.mu.Lock()
	built := e.built
	e.mu.Unlock()
	if built != bound {
		t.Fatalf("pool built %d evaluators after the failure, want %d", built, bound)
	}
}

// TestEnginePoolChurn hammers acquire/release from well over
// MaxConcurrency goroutines while every other pool-growth attempt fails:
// built must never leak past the bound (sampled concurrently, checked
// under -race by the CI core race leg) and the pool must recover to full
// service once construction succeeds again.
func TestEnginePoolChurn(t *testing.T) {
	m := newTestModel(t, 1)
	pos, types, list, box := testSystem(t, 7, 16, &m.Cfg)
	const bound = 3
	e, err := NewEngine(m, Plan{MaxConcurrency: bound})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected build failure")
	var builds atomic.Int64
	var injecting atomic.Bool
	injecting.Store(true)
	e.buildHook = func() (computer, error) {
		if injecting.Load() && builds.Add(1)%2 == 1 {
			return nil, injected
		}
		return e.newComputer()
	}

	// Concurrent sampler: the built count must never exceed the bound,
	// including transiently while builds are failing and retried.
	stop := make(chan struct{})
	var leak atomic.Int64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.mu.Lock()
			b := e.built
			e.mu.Unlock()
			if b > bound {
				leak.Store(int64(b))
			}
		}
	}()

	const goroutines, evals = 12, 10
	var wg sync.WaitGroup
	var successes, failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out Result
			for k := 0; k < evals; k++ {
				err := e.Compute(pos, types, 16, list, box, &out)
				switch {
				case err == nil:
					successes.Add(1)
				case errors.Is(err, injected):
					failures.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()

	if b := leak.Load(); b != 0 {
		t.Fatalf("pool leaked past the bound: built reached %d > %d", b, bound)
	}
	if successes.Load() == 0 {
		t.Fatal("no evaluation succeeded under churn")
	}

	// Recovery: with injection off, every call must succeed and the pool
	// must reach (and not exceed) its bound.
	injecting.Store(false)
	var wg2 sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg2.Add(1)
		go func(g int) {
			defer wg2.Done()
			var out Result
			for k := 0; k < evals; k++ {
				if err := e.Compute(pos, types, 16, list, box, &out); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg2.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d after recovery: %v", g, err)
		}
	}
	e.mu.Lock()
	built := e.built
	e.mu.Unlock()
	if built > bound {
		t.Fatalf("built %d > bound %d after recovery", built, bound)
	}
}
