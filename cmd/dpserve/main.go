// Command dpserve is the HTTP serving daemon over deepmd.Open: evaluate,
// relax and short-trajectory endpoints whose force calls all flow through
// a cross-request micro-batcher (internal/serve): a request is computed as
// soon as an evaluator is free, and requests that queue behind busy ones
// share the next batch evaluation.
//
// Usage:
//
//	dpserve                                  # tiny water model on 127.0.0.1:8100
//	dpserve -model water.dpgo -addr :8100    # serve a trained checkpoint
//	dpserve -system copper -max-batch 16
//
// Endpoints:
//
//	POST /v1/evaluate    {"pos":[...],"types":[...],"box":[lx,ly,lz]}
//	                     -> {"energy":..,"forces":[...],"virial":[...]}
//	POST /v1/relax       frame + {"max_steps":..,"ftol":..,"step_max":..}
//	POST /v1/trajectory  frame + {"steps":..,"dt":..,"temp":..,"seed":..}
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text (batcher counters)
//
// Backpressure is explicit: a full request queue answers 429 with
// Retry-After instead of queueing unboundedly. Per-request deadlines
// default to -request-timeout and can be tightened per call with
// ?timeout=250ms. SIGINT/SIGTERM drains gracefully: in-flight and queued
// requests finish, new ones are refused. All logs go to stderr; response
// bodies carry only JSON or metrics text.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deepmd-go/internal/cliopt"
	"deepmd-go/internal/serve"
	"deepmd-go/internal/units"

	deepmd "deepmd-go"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main with the process seams injected (testable): args are the
// command-line arguments, stderr receives logs.
func run(args []string, stderr io.Writer) int {
	logger := log.New(stderr, "dpserve: ", log.LstdFlags)

	fs := flag.NewFlagSet("dpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8100", "listen address (host:port; port 0 picks a free one)")
	modelPath := fs.String("model", "", "serve this model checkpoint (overrides -system)")
	system := fs.String("system", "water", "built-in tiny model when no -model: water | copper")
	maxBatch := fs.Int("max-batch", 8, "max frames per coalesced batch (1 disables coalescing)")
	queue := fs.Int("queue", 0, "pending-request bound before 429 backpressure (0: 4*max-batch)")
	dispatchers := fs.Int("dispatchers", 0, "concurrent batch dispatch loops (0: engine concurrency)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "default per-request deadline")
	eng := cliopt.Bind(fs, 1)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	model, err := buildModel(*modelPath, *system)
	if err != nil {
		logger.Print(err)
		return 1
	}
	opts, err := eng.Options()
	if err != nil {
		logger.Print(err)
		return 1
	}
	engine, err := deepmd.Open(model, opts...)
	if err != nil {
		logger.Print(err)
		return 1
	}
	bat := serve.New(engine, serve.Options{
		MaxBatch:    *maxBatch,
		QueueLimit:  *queue,
		Dispatchers: *dispatchers,
	})
	srv := newServer(model.Cfg, bat, *reqTimeout, logger)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	hs := &http.Server{Handler: srv.handler()}
	bo := bat.Options()
	logger.Printf("serving %s model on http://%s (strategy %v, max-batch %d, queue %d, dispatchers %d)",
		modelName(*modelPath, *system), ln.Addr(), engine.Plan().Strategy, bo.MaxBatch, bo.QueueLimit, bo.Dispatchers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		logger.Print(err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish in-flight handlers, then
	// drain the batcher queue.
	logger.Print("shutting down: draining in-flight and queued requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := bat.Close(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Printf("batcher drain: %v", err)
		return 1
	}
	st := bat.Stats()
	logger.Printf("served %d requests in %d batches (max coalesce %d)", st.Completed, st.Batches, st.MaxBatch)
	return 0
}

// buildModel loads a checkpoint or constructs a deterministic tiny
// built-in model (the same Quick-scale geometries internal/experiments
// measures).
func buildModel(path, system string) (*deepmd.Model, error) {
	if path != "" {
		return deepmd.LoadModel(path)
	}
	var cfg deepmd.Config
	switch system {
	case "water":
		cfg = deepmd.TinyConfig(2)
		cfg.TypeNames = []string{"O", "H"}
		cfg.Masses = []float64{units.MassO, units.MassH}
		cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
		cfg.Sel = []int{12, 24}
	case "copper":
		cfg = deepmd.TinyConfig(1)
		cfg.TypeNames = []string{"Cu"}
		cfg.Masses = []float64{units.MassCu}
		cfg.Rcut, cfg.RcutSmth, cfg.Skin = 5.0, 2.0, 1.0
		cfg.Sel = []int{110}
	default:
		return nil, fmt.Errorf("unknown -system %q (want water or copper, or pass -model)", system)
	}
	return deepmd.NewModel(cfg)
}

func modelName(path, system string) string {
	if path != "" {
		return path
	}
	return "tiny " + system
}
