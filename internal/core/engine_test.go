package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"deepmd-go/internal/compress"
)

// TestResolvePlan pins the validation and defaulting rules of the unified
// options layer: every combination is judged once, invalid ones wrap
// ErrStrategyUnavailable, and Auto resolves to the fastest legal strategy
// for the model.
func TestResolvePlan(t *testing.T) {
	plain := newTestModel(t, 2)
	tabled := newTestModel(t, 2)
	if err := tabled.AttachCompressedTables(compress.Spec{}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		model   *Model
		req     Plan
		want    Plan // zero fields unchecked except Strategy/Precision
		wantErr error
	}{
		{name: "defaults", model: plain, req: Plan{},
			want: Plan{Precision: Double, Strategy: StrategyBatched}},
		{name: "auto-prefers-tables", model: tabled, req: Plan{},
			want: Plan{Precision: Double, Strategy: StrategyCompressed}},
		{name: "explicit-mixed-peratom", model: plain, req: Plan{Precision: Mixed, Strategy: StrategyPerAtom},
			want: Plan{Precision: Mixed, Strategy: StrategyPerAtom}},
		{name: "compressed-needs-tables", model: plain, req: Plan{Strategy: StrategyCompressed},
			wantErr: ErrStrategyUnavailable},
		{name: "baseline-is-double-only", model: plain, req: Plan{Precision: Mixed, Strategy: StrategyBaseline},
			wantErr: ErrStrategyUnavailable},
		{name: "baseline-double-ok", model: plain, req: Plan{Strategy: StrategyBaseline, Workers: 8},
			want: Plan{Precision: Double, Strategy: StrategyBaseline}},
		// Workers survives baseline resolution: the evaluator ignores it,
		// but neighbor builds driven through the worker hint must not.
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ResolvePlan(tc.model, tc.req)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("ResolvePlan err = %v, want errors.Is(%v)", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Precision != tc.want.Precision || got.Strategy != tc.want.Strategy {
				t.Fatalf("resolved %s/%s, want %s/%s", got.Precision, got.Strategy, tc.want.Precision, tc.want.Strategy)
			}
			if got.Workers < 1 || got.MaxConcurrency < 1 {
				t.Fatalf("unresolved defaults in %+v", got)
			}
			if got.Strategy == StrategyBaseline && tc.req.Workers > 0 && got.Workers != tc.req.Workers {
				t.Fatalf("baseline plan dropped the worker budget (%+v): neighbor builds hinted from it would serialize", got)
			}
		})
	}

	// Worker/concurrency defaulting: the model's configured Workers is the
	// fallback, explicit budgets are preserved.
	wcfg := TinyConfig(2)
	wcfg.Workers = 3
	wm, err := New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ResolvePlan(wm, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers != 3 {
		t.Fatalf("model-default workers: got %d, want 3", p.Workers)
	}
	p, err = ResolvePlan(wm, Plan{Workers: 2, MaxConcurrency: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers != 2 || p.MaxConcurrency != 7 {
		t.Fatalf("explicit budgets not preserved: %+v", p)
	}
}

// TestEngineConcurrentBitIdentical is the concurrency contract of the
// Engine, exercised under -race by the CI core race leg: 8 goroutines
// hammer one engine over water and copper systems, across strategies and
// precisions, with the pool bound below the goroutine count so evaluators
// are contended and reused — and every result must be bit-identical to a
// serial evaluation on a raw single-goroutine evaluator with the same
// plan.
func TestEngineConcurrentBitIdentical(t *testing.T) {
	const goroutines, evals = 8, 3
	for _, sys := range []struct {
		name  string
		water bool
	}{{"water", true}, {"copper", false}} {
		cfg := batchTestConfig(sys.water)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
			t.Fatal(err)
		}
		pos, types, list, box := latticeSystem(t, sys.water, &cfg)
		n := len(types)

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
				plan.MaxConcurrency = 4 // < goroutines: forces pool reuse under contention
				e, err := NewEngine(m, plan)
				if err != nil {
					t.Fatal(err)
				}

				// Serial reference on a raw evaluator with the same plan.
				var ref Result
				refEv, err := e.newComputer()
				if err != nil {
					t.Fatal(err)
				}
				if err := refEv.Compute(pos, types, n, list, box, &ref); err != nil {
					t.Fatal(err)
				}

				outs := make([]Result, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for k := 0; k < evals; k++ {
							if err := e.Compute(pos, types, n, list, box, &outs[g]); err != nil {
								errs[g] = err
								return
							}
						}
					}(g)
				}
				wg.Wait()
				for g := 0; g < goroutines; g++ {
					if errs[g] != nil {
						t.Fatalf("goroutine %d: %v", g, errs[g])
					}
					if outs[g].Energy != ref.Energy {
						t.Fatalf("goroutine %d energy %.17g != serial %.17g", g, outs[g].Energy, ref.Energy)
					}
					for i := range ref.Force {
						if math.Float64bits(outs[g].Force[i]) != math.Float64bits(ref.Force[i]) {
							t.Fatalf("goroutine %d force[%d] = %g != serial %g", g, i, outs[g].Force[i], ref.Force[i])
						}
					}
					for i := range ref.AtomEnergy {
						if outs[g].AtomEnergy[i] != ref.AtomEnergy[i] {
							t.Fatalf("goroutine %d atomEnergy[%d] differs", g, i)
						}
					}
					if outs[g].Virial != ref.Virial {
						t.Fatalf("goroutine %d virial differs", g)
					}
				}
			})
		}
	}
}

// The engine adds no steady-state allocation on top of the evaluator it
// pools: acquire is one channel receive, release one send, and the
// borrowed evaluator's arenas are warm after the first call.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments allocations; zero-alloc assertion only holds without -race")
	}
	cfg := batchTestConfig(true)
	cfg.ChunkSize = 16
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(m, Plan{MaxConcurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := latticeSystem(t, true, &cfg)
	n := len(types)
	var out Result
	for i := 0; i < 2; i++ {
		if err := e.EvaluateInto(pos, types, n, list, box, &out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := e.EvaluateInto(pos, types, n, list, box, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state EvaluateInto allocated %.1f times per call, want 0", allocs)
	}
}

// A baseline-strategy engine must execute the 2018 path, matching the
// legacy BaselineEvaluator constructor bit for bit.
func TestEngineBaselineMatchesLegacy(t *testing.T) {
	m := newTestModel(t, 2)
	pos, types, list, box := testSystem(t, 5, 24, &m.Cfg)
	e, err := NewEngine(m, Plan{Strategy: StrategyBaseline})
	if err != nil {
		t.Fatal(err)
	}
	var got, want Result
	if err := e.Compute(pos, types, 24, list, box, &got); err != nil {
		t.Fatal(err)
	}
	if err := NewBaselineEvaluator(m).Compute(pos, types, 24, list, box, &want); err != nil {
		t.Fatal(err)
	}
	if got.Energy != want.Energy {
		t.Fatalf("engine baseline energy %g != legacy %g", got.Energy, want.Energy)
	}
	for i := range want.Force {
		if got.Force[i] != want.Force[i] {
			t.Fatalf("engine baseline force[%d] differs", i)
		}
	}
}

// Evaluate allocates and returns a fresh Result per call — the
// convenience form — and must agree with Compute.
func TestEngineEvaluateAllocates(t *testing.T) {
	m := newTestModel(t, 1)
	pos, types, list, box := testSystem(t, 9, 16, &m.Cfg)
	e, err := NewEngine(m, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Evaluate(pos, types, 16, list, box)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Evaluate(pos, types, 16, list, box)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("Evaluate returned the same Result twice")
	}
	if r1.Energy != r2.Energy {
		t.Fatalf("Evaluate not deterministic: %g vs %g", r1.Energy, r2.Energy)
	}
}

// The sentinel errors must survive every wrapping layer: errors.Is is the
// documented contract for both plan validation and the weightless
// compressed gradient path.
func TestSentinelErrors(t *testing.T) {
	m := newTestModel(t, 1)
	if _, err := NewEngine(m, Plan{Strategy: StrategyCompressed}); !errors.Is(err, ErrStrategyUnavailable) {
		t.Fatalf("compressed without tables: err = %v, want ErrStrategyUnavailable", err)
	}
	if _, err := NewEngine(m, Plan{Precision: Mixed, Strategy: StrategyBaseline}); !errors.Is(err, ErrStrategyUnavailable) {
		t.Fatalf("mixed baseline: err = %v, want ErrStrategyUnavailable", err)
	}

	ev := NewEvaluator[float64](m)
	if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := testSystem(t, 3, 8, &m.Cfg)
	var out Result
	err := ev.ComputeWithGrads(pos, types, 8, list, box, &out, NewModelGrads(m))
	if !errors.Is(err, ErrNoGradsForCompressed) {
		t.Fatalf("grads on compressed path: err = %v, want ErrNoGradsForCompressed", err)
	}
	// The wrap keeps context for humans too.
	if err == nil || len(err.Error()) < len(ErrNoGradsForCompressed.Error()) {
		t.Fatalf("wrapped error lost its context: %v", err)
	}
}

// Pool members are built from the snapshot frozen at NewEngine:
// attaching different tables to the model AFTER Open must not leak into
// lazily built evaluators, or results would depend on which pool member
// serves a call. Concurrent Prewarm calls must also not deadlock (each
// holds the whole pool in turn).
func TestEngineSnapshotAndPrewarm(t *testing.T) {
	cfg := batchTestConfig(true)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
		t.Fatal(err)
	}
	pos, types, list, box := latticeSystem(t, true, &cfg)
	n := len(types)
	e, err := NewEngine(m, Plan{Strategy: StrategyCompressed, MaxConcurrency: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	if err := e.Compute(pos, types, n, list, box, &ref); err != nil {
		t.Fatal(err)
	}

	// Re-tabulate the model at a different resolution; the engine must
	// keep serving the tables it was opened with.
	if err := m.AttachCompressedTables(compress.Spec{NSeg: 64}); err != nil {
		t.Fatal(err)
	}

	// Concurrent Prewarms (forcing the lazy builds) + evaluations.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = e.Prewarm(pos, types, n, list, box)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	outs := make([]Result, 6)
	gerrs := make([]error, 6)
	for g := range outs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gerrs[g] = e.Compute(pos, types, n, list, box, &outs[g])
		}(g)
	}
	wg.Wait()
	for g := range outs {
		if gerrs[g] != nil {
			t.Fatal(gerrs[g])
		}
		if outs[g].Energy != ref.Energy {
			t.Fatalf("goroutine %d energy %.17g != pre-mutation reference %.17g: a pool member picked up the re-attached tables", g, outs[g].Energy, ref.Energy)
		}
	}
}

// An engine bounded to one evaluator still serves many goroutines: calls
// serialize on the pool instead of racing.
func TestEngineConcurrencyBoundOne(t *testing.T) {
	m := newTestModel(t, 1)
	pos, types, list, box := testSystem(t, 11, 16, &m.Cfg)
	e, err := NewEngine(m, Plan{MaxConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	if err := e.Compute(pos, types, 16, list, box, &ref); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out Result
			if err := e.Compute(pos, types, 16, list, box, &out); err != nil {
				errCh <- err
				return
			}
			if out.Energy != ref.Energy {
				errCh <- fmt.Errorf("energy %.17g != %.17g", out.Energy, ref.Energy)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
