package core

import (
	"sync"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// computer is the single-goroutine evaluation contract every execution
// strategy satisfies: the optimized Evaluator in either precision and the
// BaselineEvaluator. The Engine pools computers so concurrent callers
// never share one.
type computer interface {
	Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error
}

// Engine is the goroutine-safe serving entry point over one model: a
// resolved execution Plan plus a pool of per-goroutine evaluators with
// their arenas. Every concurrent Compute/EvaluateInto call borrows one
// evaluator for its duration, so N independent systems or replicas
// evaluate in parallel with zero steady-state heap allocation — the
// paper's init-time memory-trunk strategy (Sec. 5.2.2) extended across a
// pool. Evaluators are built lazily up to Plan.MaxConcurrency: an engine
// serving one goroutine pays for one evaluator's arenas.
//
// Results are bit-identical to a serial evaluation regardless of which
// pooled evaluator serves a call and how many calls run concurrently:
// every evaluator executes the same plan, every pool member is built
// from the same model snapshot taken at NewEngine time (attaching new
// compression tables to the model after Open does not leak into lazily
// built members), and each strategy is deterministic at any worker
// count. The network weights themselves stay shared with the model and
// must not be mutated while calls are in flight — the same contract raw
// evaluators have always had with the trainer.
type Engine struct {
	model *Model
	plan  Plan
	// snap is the shallow model snapshot every pool member is built
	// from: the plan's worker budget folded into the config, the
	// weight/table pointers frozen as of NewEngine.
	snap Model

	// free is the evaluator free-list; capacity is the concurrency bound.
	free chan computer
	// mu guards built, the number of evaluators created so far.
	mu    sync.Mutex
	built int
	// prewarmMu serializes Prewarm sweeps; overlapping sweeps would churn
	// the pool without warming anything new.
	prewarmMu sync.Mutex

	// buildHook, when set, replaces newComputer for pool growth — a test
	// seam for injecting construction failures (the acquire/release churn
	// test) without reaching into the model.
	buildHook func() (computer, error)
	// prewarmHook, when set, runs after each Prewarm slot has been warmed
	// and released — a test seam proving live traffic interleaves with
	// the sweep.
	prewarmHook func(slot int)
}

// NewEngine resolves the requested plan against the model (see
// ResolvePlan for the validation rules) and returns an engine ready to
// serve MaxConcurrency concurrent evaluations. The first evaluator is
// built eagerly so construction-time failures surface here rather than on
// the first call.
func NewEngine(m *Model, req Plan) (*Engine, error) {
	plan, err := ResolvePlan(m, req)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		model: m,
		plan:  plan,
		free:  make(chan computer, plan.MaxConcurrency),
	}
	e.snap = *m
	e.snap.Cfg.Workers = plan.Workers
	c, err := e.newComputer()
	if err != nil {
		return nil, err
	}
	e.built = 1
	e.free <- c
	return e, nil
}

// Plan returns the resolved execution plan.
func (e *Engine) Plan() Plan { return e.plan }

// Model returns the model the engine serves.
func (e *Engine) Model() *Model { return e.model }

// EvalWorkers reports the per-evaluation worker budget; the MD engines
// use it to default their neighbor-build parallelism to the evaluator's
// (md.WorkerHinter), dropping the ad-hoc Workers plumbing.
func (e *Engine) EvalWorkers() int { return e.plan.Workers }

// MaxConcurrency reports the evaluator-pool bound.
func (e *Engine) MaxConcurrency() int { return e.plan.MaxConcurrency }

// newComputer builds one pooled evaluator executing the resolved plan,
// from the snapshot frozen at NewEngine. Networks and tables stay shared
// with the original model (weights are read-only during serving); only
// the Cfg — with the plan's worker budget — is the engine's own.
func (e *Engine) newComputer() (computer, error) {
	if e.plan.Strategy == StrategyBaseline {
		return NewBaselineEvaluator(&e.snap), nil
	}
	if e.plan.Precision == Mixed {
		return buildEvaluator[float32](&e.snap, e.plan)
	}
	return buildEvaluator[float64](&e.snap, e.plan)
}

// buildEvaluator constructs and configures one optimized evaluator in
// precision T per the plan.
func buildEvaluator[T tensor.Float](m *Model, plan Plan) (computer, error) {
	ev := NewEvaluator[T](m)
	switch plan.Strategy {
	case StrategyPerAtom:
		ev.SetPerAtomDescriptors(true)
	case StrategyCompressed:
		// ResolvePlan guaranteed attached, matching tables; a zero Spec
		// converts them as shipped.
		if err := ev.SetCompressedEmbedding(compress.Spec{}); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// build grows the pool by one computer, through the test hook when set.
// A failed build gives its slot back (built--) so the pool recovers: the
// next acquire retries construction instead of serving a permanently
// shrunken pool.
func (e *Engine) build() (computer, error) {
	newC := e.newComputer
	if e.buildHook != nil {
		newC = e.buildHook
	}
	c, err := newC()
	if err != nil {
		e.mu.Lock()
		e.built--
		e.mu.Unlock()
		return nil, err
	}
	return c, nil
}

// acquire borrows an evaluator: a pooled idle one when available, a
// freshly built one while under the concurrency bound, else it blocks
// until a concurrent call releases one. The fast path is one channel
// receive — no allocation, no lock.
func (e *Engine) acquire() (computer, error) {
	select {
	case c := <-e.free:
		return c, nil
	default:
	}
	e.mu.Lock()
	if e.built < e.plan.MaxConcurrency {
		e.built++
		e.mu.Unlock()
		return e.build()
	}
	e.mu.Unlock()
	return <-e.free, nil
}

// release returns a borrowed evaluator to the pool.
func (e *Engine) release(c computer) { e.free <- c }

// Compute evaluates energy, forces and virial into out. It is
// goroutine-safe — the md.Potential seam for simulations that share one
// engine — and allocation-free at steady state once the borrowed
// evaluator's arenas are warm. Concurrent callers must pass distinct out
// buffers.
func (e *Engine) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error {
	c, err := e.acquire()
	if err != nil {
		return err
	}
	defer e.release(c)
	return c.Compute(pos, types, nloc, list, box, out)
}

// EvaluateInto is Compute under the serving-API name: one evaluation of
// the system described by (pos, types, nloc, list, box) into out,
// goroutine-safe, reusing out's buffers when adequately sized.
func (e *Engine) EvaluateInto(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error {
	return e.Compute(pos, types, nloc, list, box, out)
}

// Prewarm builds the engine's full evaluator pool and warms it with one
// evaluation of the given system per pool slot, so subsequent calls at
// any concurrency level hit warm arenas and allocate nothing — the
// paper's init-time memory-trunk strategy applied to the whole pool, and
// the cold-start control a serving deployment runs before taking traffic.
//
// Each slot is warmed acquire → compute → release, never holding more
// than one evaluator, so live traffic interleaves with the sweep instead
// of stalling on a fully held pool (the pre-ISSUE-7 behavior). Under
// concurrent traffic a pool member may be warmed by a traffic call rather
// than by the sweep itself; either way every member exists and has served
// at least one evaluation by the time Prewarm returns. A mid-sweep build
// failure returns its slot to the pool budget (see build), so a later
// Prewarm or acquire retries construction rather than serving a
// permanently partial pool.
func (e *Engine) Prewarm(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box) error {
	// Serialized so overlapping sweeps don't ping-pong the same members;
	// regular traffic is free to interleave.
	e.prewarmMu.Lock()
	defer e.prewarmMu.Unlock()
	var out Result
	for i := 0; i < e.plan.MaxConcurrency; i++ {
		// Prefer building a not-yet-existing member; once the pool is
		// full, FIFO rotation through the free list reaches every idle
		// member across the remaining iterations.
		e.mu.Lock()
		var c computer
		var err error
		if e.built < e.plan.MaxConcurrency {
			e.built++
			e.mu.Unlock()
			c, err = e.build()
		} else {
			e.mu.Unlock()
			c, err = e.acquire()
		}
		if err != nil {
			return err
		}
		err = c.Compute(pos, types, nloc, list, box, &out)
		e.release(c)
		if err != nil {
			return err
		}
		if e.prewarmHook != nil {
			e.prewarmHook(i)
		}
	}
	return nil
}

// Evaluate is EvaluateInto with a freshly allocated Result — the
// convenient form for callers that do not manage result buffers. Serving
// hot paths should prefer EvaluateInto with a per-goroutine Result.
func (e *Engine) Evaluate(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box) (*Result, error) {
	out := new(Result)
	if err := e.Compute(pos, types, nloc, list, box, out); err != nil {
		return nil, err
	}
	return out, nil
}
