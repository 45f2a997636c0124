package core

import (
	"sync"

	"deepmd-go/internal/neighbor"
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
// their arenas. Every concurrent Compute call borrows one
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

	// buildHook, when set, replaces newComputer for pool growth — a test
	// seam for injecting construction failures (the acquire/release churn
	// test) without reaching into the model.
	buildHook func() (computer, error)
}

// NewEngine resolves the requested plan against the model (see
// ResolvePlan for the validation rules) and returns an engine ready to
// serve MaxConcurrency concurrent evaluations. The first evaluator is
// built eagerly, so construction-time failures — a compressed plan over
// tables that are missing or do not fit the model, which wraps
// ErrStrategyUnavailable — surface here rather than on the first call.
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

// EvalWorkers reports the per-evaluation worker budget; the MD engines
// use it to default their neighbor-build parallelism to the evaluator's
// (md.WorkerHinter), dropping the ad-hoc Workers plumbing.
func (e *Engine) EvalWorkers() int { return e.plan.Workers }

// MaxConcurrency reports the evaluator-pool bound.
func (e *Engine) MaxConcurrency() int { return e.plan.MaxConcurrency }

// newComputer builds one pooled evaluator executing the resolved plan,
// from the snapshot frozen at NewEngine: the optimized evaluator is built
// once, for the plan's strategy, its arenas sized for it. Networks and
// tables stay shared with the original model (weights are read-only
// during serving); only the Cfg — with the plan's worker budget — is the
// engine's own.
func (e *Engine) newComputer() (computer, error) {
	if e.plan.Strategy == StrategyBaseline {
		return NewBaselineEvaluator(&e.snap), nil
	}
	var (
		c   computer
		err error
	)
	if e.plan.Precision == Mixed {
		c, err = newEvaluator[float32](&e.snap, e.plan.Strategy)
	} else {
		c, err = newEvaluator[float64](&e.snap, e.plan.Strategy)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
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

// EvaluateInto is Compute under its older serving-API name. New code
// calls Compute; the benchmark harness (bench/serve.go) still calls this
// one.
func (e *Engine) EvaluateInto(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result) error {
	return e.Compute(pos, types, nloc, list, box, out)
}

// Evaluate is Compute with a freshly allocated Result — the convenient
// form for callers that do not manage result buffers. Serving hot paths
// should prefer Compute with a per-goroutine Result.
func (e *Engine) Evaluate(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box) (*Result, error) {
	out := new(Result)
	if err := e.Compute(pos, types, nloc, list, box, out); err != nil {
		return nil, err
	}
	return out, nil
}
