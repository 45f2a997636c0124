package core

import (
	"errors"
	"fmt"
	"runtime"
)

// This file is the options layer of the unified Engine API (ISSUE 5): the
// execution choices the paper's optimizations introduced — precision
// (Sec. 5.2.3), descriptor execution strategy (Secs. 4, 5.3.1 and the
// successor papers' compression), and the parallelism budget — collapse
// into one Plan that is validated against a model exactly once, instead
// of an accretion of mutually-unaware post-hoc setters.

// Sentinel errors of plan resolution and strategy dispatch; errors.Is
// works through every wrapping layer (the facade re-exports both).
var (
	// ErrStrategyUnavailable reports a precision x strategy x model
	// combination that cannot execute: the baseline evaluator is
	// double-precision only, and the compressed strategy requires tables
	// attached to the model (Model.AttachCompressedTables).
	ErrStrategyUnavailable = errors.New("core: execution strategy unavailable")
	// ErrNoGradsForCompressed reports ComputeWithGrads on the compressed
	// embedding path: the tabulated embedding has no weights in the
	// graph, so parameter gradients are not representable. Training runs
	// on the exact nets and re-tabulates afterwards.
	ErrNoGradsForCompressed = errors.New("core: parameter gradients unavailable on the compressed embedding path")
)

// Precision selects the numeric execution of the pipeline.
type Precision int

const (
	// PrecisionAuto resolves to Double, the conservative default.
	PrecisionAuto Precision = iota
	// Double runs the whole pipeline in float64.
	Double
	// Mixed runs network math in float32 between double-precision
	// Environment and ProdForce boundaries (Sec. 5.2.3).
	Mixed
)

// String returns the flag-style spelling.
func (p Precision) String() string {
	switch p {
	case PrecisionAuto:
		return "auto"
	case Double:
		return "double"
	case Mixed:
		return "mixed"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// Strategy selects the execution strategy of the descriptor stage. The
// mathematics is identical across all of them; only the execution
// differs — which is exactly the contrast the paper's evaluation draws.
type Strategy int

const (
	// StrategyAuto resolves at plan time to the fastest strategy that is
	// legal for the model: Compressed when tables are attached, else
	// Batched.
	StrategyAuto Strategy = iota
	// StrategyBaseline is the 2018 serial DeePMD-kit execution (unfused
	// ops, AoS neighbor handling, per-call allocation); double precision
	// only.
	StrategyBaseline
	// StrategyPerAtom is the retained per-atom reference loop (2018
	// computational granularity, the differential oracle).
	StrategyPerAtom
	// StrategyBatched is the exact embedding nets run chunk by chunk as one
	// fused operator: cache-resident row tiles over real neighbors,
	// contracted on the spot and recomputed in the backward pass, with the
	// fitting net as one chunk-tall GEMM batch (Sec. 5.3), the default.
	StrategyBatched
	// StrategyCompressed is the batched pipeline with the embedding nets
	// replaced by tabulated quintics (the 86-PFLOPS/149-ns-day
	// successors' model compression). Requires attached tables.
	StrategyCompressed
)

// String returns the flag-style spelling.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyBaseline:
		return "baseline"
	case StrategyPerAtom:
		return "peratom"
	case StrategyBatched:
		return "batched"
	case StrategyCompressed:
		return "compressed"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Plan is one fully resolved execution plan for an Engine: every knob the
// four optimization PRs introduced, validated as a combination. The zero
// value requests all defaults; ResolvePlan fills them in.
type Plan struct {
	// Precision is Double or Mixed after resolution.
	Precision Precision
	// Strategy is Baseline, PerAtom, Batched or Compressed after
	// resolution (Auto resolves to the fastest legal strategy).
	Strategy Strategy
	// Workers is the per-evaluation parallelism budget (chunk fan-out,
	// falling back to intra-GEMM row blocks; core.Config.Workers). Zero
	// defaults to the model's configured Workers.
	Workers int
	// MaxConcurrency bounds how many independent evaluations the Engine
	// serves at once — the size of its evaluator pool. Zero defaults to
	// GOMAXPROCS.
	MaxConcurrency int
}

// ResolvePlan validates the requested plan against the model and fills
// defaults, returning the concrete plan an Engine will execute. All
// combination errors surface here, once, instead of step by step through
// post-hoc setters; invalid combinations wrap ErrStrategyUnavailable so
// errors.Is works.
func ResolvePlan(m *Model, req Plan) (Plan, error) {
	p := req
	switch p.Precision {
	case PrecisionAuto:
		p.Precision = Double
	case Double, Mixed:
	default:
		return Plan{}, fmt.Errorf("core: unknown precision %d", int(p.Precision))
	}
	switch p.Strategy {
	case StrategyAuto:
		// Fastest legal strategy: the compressed tables, when shipped
		// with the model, beat the exact batched pipeline (go run ./bench,
		// copper_f32_compressed; agreement pinned by
		// TestCompressedEvaluatorMatchesBatched); otherwise the batched
		// pipeline beats per-atom and baseline everywhere.
		if m.Compressed != nil {
			p.Strategy = StrategyCompressed
		} else {
			p.Strategy = StrategyBatched
		}
	case StrategyBaseline, StrategyPerAtom, StrategyBatched, StrategyCompressed:
	default:
		return Plan{}, fmt.Errorf("core: unknown strategy %d", int(p.Strategy))
	}

	if p.Strategy == StrategyBaseline && p.Precision == Mixed {
		return Plan{}, fmt.Errorf("%w: the baseline evaluator is double-precision only (Sec. 4)", ErrStrategyUnavailable)
	}
	if p.Strategy == StrategyCompressed {
		if m.Compressed == nil {
			return Plan{}, fmt.Errorf("%w: compressed strategy requires attached tables (Model.AttachCompressedTables)", ErrStrategyUnavailable)
		}
		nt := m.Cfg.NumTypes()
		if len(m.Compressed) != nt {
			return Plan{}, fmt.Errorf("%w: %d compressed table rows for %d types", ErrStrategyUnavailable, len(m.Compressed), nt)
		}
		for ci, row := range m.Compressed {
			if len(row) != nt {
				return Plan{}, fmt.Errorf("%w: %d compressed tables in row %d for %d types", ErrStrategyUnavailable, len(row), ci, nt)
			}
			for tj, tb := range row {
				if tb == nil || tb.M != m.Cfg.M() {
					return Plan{}, fmt.Errorf("%w: compressed table (%d,%d) does not match the model's %d channels", ErrStrategyUnavailable, ci, tj, m.Cfg.M())
				}
			}
		}
	}

	if p.Workers <= 0 {
		p.Workers = max(1, m.Cfg.Workers)
	}
	// The baseline strategy predates every parallel evaluation path and
	// ignores the budget inside Compute, but Workers stays resolved:
	// it still drives neighbor-list builds through the engine's worker
	// hint, an orthogonal cost that was parallel before the Engine API
	// and must stay so under baseline-vs-optimized comparisons.
	if p.MaxConcurrency <= 0 {
		p.MaxConcurrency = max(1, runtime.GOMAXPROCS(0))
	}
	return p, nil
}
