// Package cliopt is the shared flag surface of the cmd/ binaries: one
// table of engine-related flags (-precision, -strategy, -workers,
// -concurrency) and one translation into deepmd.Open options, so every
// binary resolves the same spelling the same way instead of growing
// divergent per-binary strategy flags.
package cliopt

import (
	"flag"
	"fmt"

	deepmd "deepmd-go"
)

// Set holds the raw values of the shared engine flags bound by Bind.
// After flag parsing, Options translates them into Open options.
type Set struct {
	// Precision is "double" or "mixed".
	Precision string
	// Strategy is "auto", "baseline", "peratom", "batched" or
	// "compressed".
	Strategy string
	// Workers is the per-evaluation goroutine budget; it also feeds
	// neighbor-list builds through the engine's worker hint.
	Workers int
	// MaxConcurrency is the engine's pooled-evaluator bound (0 means
	// GOMAXPROCS).
	MaxConcurrency int
}

// Bind registers the shared engine flags on fs with the given default
// worker budget and returns the Set the parsed values land in.
func Bind(fs *flag.FlagSet, defaultWorkers int) *Set {
	s := &Set{}
	fs.StringVar(&s.Precision, "precision", "double", "double | mixed network math")
	fs.StringVar(&s.Strategy, "strategy", "auto", "descriptor execution strategy: auto | baseline | peratom | batched | compressed (auto picks the fastest legal one)")
	fs.IntVar(&s.Workers, "workers", defaultWorkers, "goroutines per evaluation (chunk fan-out / intra-GEMM row blocks) and neighbor-list builds")
	fs.IntVar(&s.MaxConcurrency, "concurrency", 0, "concurrent evaluations the engine serves from its evaluator pool (0: GOMAXPROCS)")
	return s
}

// ParsePrecision translates a -precision spelling.
func ParsePrecision(s string) (deepmd.Precision, error) {
	switch s {
	case "", "auto", "double":
		return deepmd.Double, nil
	case "mixed":
		return deepmd.Mixed, nil
	}
	return 0, fmt.Errorf("cliopt: unknown precision %q (want double or mixed; the 2018 execution is -strategy baseline)", s)
}

// ParseStrategy translates a -strategy spelling.
func ParseStrategy(s string) (deepmd.Strategy, error) {
	switch s {
	case "", "auto":
		return deepmd.Auto, nil
	case "baseline":
		return deepmd.Baseline, nil
	case "peratom":
		return deepmd.PerAtom, nil
	case "batched":
		return deepmd.Batched, nil
	case "compressed":
		return deepmd.Compressed, nil
	}
	return 0, fmt.Errorf("cliopt: unknown strategy %q (want auto, baseline, peratom, batched or compressed)", s)
}

// Options translates the parsed flags into deepmd.Open options.
// Combination validation (e.g. Compressed without tables, Baseline with
// Mixed) stays in Open, which sees the model; only spelling errors
// surface here.
func (s *Set) Options() ([]deepmd.Option, error) {
	p, err := ParsePrecision(s.Precision)
	if err != nil {
		return nil, err
	}
	st, err := ParseStrategy(s.Strategy)
	if err != nil {
		return nil, err
	}
	return []deepmd.Option{
		deepmd.WithPrecision(p),
		deepmd.WithStrategy(st),
		deepmd.WithWorkers(s.Workers),
		deepmd.WithMaxConcurrency(s.MaxConcurrency),
	}, nil
}
