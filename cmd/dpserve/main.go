// Command dpserve is the HTTP serving daemon over deepmd.Open: evaluate,
// relax and short-trajectory endpoints whose force calls all pass one
// admission gate (internal/serve): a request is computed on its handler's
// goroutine as soon as an evaluator is free, one frame per force call.
//
// Usage:
//
//	dpserve                                  # tiny water model on 127.0.0.1:8100
//	dpserve -model water.dpgo -addr :8100    # serve a trained checkpoint
//	dpserve -system copper -queue 64
//	dpserve -concurrency 4                   # 4 pooled evaluators, 4 requests computed at once
//
// Endpoints:
//
//	POST /v1/evaluate    {"pos":[...],"types":[...],"box":[lx,ly,lz]}
//	                     -> {"energy":..,"forces":[...],"virial":[...]}
//	POST /v1/relax       frame + {"max_steps":..,"ftol":..,"step_max":..}
//	POST /v1/trajectory  frame + {"steps":..,"dt":..,"temp":..,"seed":..}
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text (queue counters)
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
	"deepmd-go/internal/core"
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
	queue := fs.Int("queue", 0, fmt.Sprintf("pending-request bound before 429 backpressure (0: %d)", serve.DefaultQueueLimit))
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "default per-request deadline")
	eng := cliopt.Bind(fs, 1)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkFlags(*queue, *reqTimeout); err != nil {
		logger.Print(err)
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
	bat := serve.New(engine, serve.Options{QueueLimit: *queue})
	srv := newServer(model.Cfg, bat, *reqTimeout, logger)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	hs := &http.Server{Handler: srv.handler()}
	logger.Printf("serving %s model on http://%s (strategy %v, concurrency %d, queue %d)",
		modelName(*modelPath, *system), ln.Addr(), engine.Plan().Strategy, engine.MaxConcurrency(), bat.Options().QueueLimit)

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

	// Graceful drain: stop accepting and finish in-flight handlers, whose
	// force calls run on their own goroutines; then close the gate, which
	// waits for any call still admitted.
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
	logger.Printf("served %d requests", st.Completed)
	return 0
}

// checkFlags rejects the queue and deadline flags serve.New or the server
// would otherwise replace with their defaults: the queue bound cannot be
// negative (0 keeps meaning "default"), and a deadline must lie in the
// future.
func checkFlags(queue int, reqTimeout time.Duration) error {
	switch {
	case queue < 0:
		return fmt.Errorf("-queue %d: must be >= 0 (0: %d)", queue, serve.DefaultQueueLimit)
	case reqTimeout <= 0:
		return fmt.Errorf("-request-timeout %v: must be positive", reqTimeout)
	}
	return nil
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
		cfg = core.QuickWaterConfig()
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
