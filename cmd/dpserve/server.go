package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/serve"

	deepmd "deepmd-go"
)

// maxBodyBytes bounds request bodies; a frame of 100k atoms in JSON stays
// well under it.
const maxBodyBytes = 32 << 20

// server routes HTTP requests into the micro-batcher. All force calls —
// plain evaluations, relaxation descent steps, trajectory integration —
// go through the batcher, so any concurrent mix of endpoints coalesces.
type server struct {
	cfg     deepmd.Config
	bat     *serve.Batcher
	spec    neighbor.Spec
	timeout time.Duration // default per-request evaluate deadline
	logger  *log.Logger   // stderr only: responses carry JSON/metrics, never logs
	start   time.Time
}

func newServer(cfg deepmd.Config, bat *serve.Batcher, timeout time.Duration, logger *log.Logger) *server {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &server{
		cfg:     cfg,
		bat:     bat,
		spec:    deepmd.SpecFor(cfg),
		timeout: timeout,
		logger:  logger,
		start:   time.Now(),
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("/v1/relax", s.handleRelax)
	mux.HandleFunc("/v1/trajectory", s.handleTrajectory)
	return s.logged(mux)
}

// logged is the access log, written to the logger (stderr) — never into a
// response body, so piping /metrics or any JSON endpoint stays parseable.
func (s *server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		if s.logger != nil {
			s.logger.Printf("%s %s %d %s", r.Method, r.URL.Path, sw.code, time.Since(t0).Round(time.Microsecond))
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// frameRequest is the configuration common to all three frame endpoints.
type frameRequest struct {
	// Pos is the flat xyz coordinate array (Angstrom), 3 per atom.
	Pos []float64 `json:"pos"`
	// Types is the per-atom type index into the model's TypeNames.
	Types []int `json:"types"`
	// Box is the orthorhombic periodic box edge lengths (Angstrom).
	Box [3]float64 `json:"box"`
}

type evaluateResponse struct {
	Energy float64   `json:"energy"`
	Forces []float64 `json:"forces"`
	Virial []float64 `json:"virial"`
}

type relaxRequest struct {
	frameRequest
	MaxSteps int     `json:"max_steps"`
	Ftol     float64 `json:"ftol"`
	StepMax  float64 `json:"step_max"`
}

type relaxResponse struct {
	Energy    float64   `json:"energy"`
	Fmax      float64   `json:"fmax"`
	Steps     int       `json:"steps"`
	Converged bool      `json:"converged"`
	Pos       []float64 `json:"pos"`
}

type trajectoryRequest struct {
	frameRequest
	// Steps is the number of velocity-Verlet steps (capped at 10000).
	Steps int `json:"steps"`
	// Dt is the time step in ps (default 5e-4).
	Dt float64 `json:"dt"`
	// Temp initializes Boltzmann velocities at this temperature (K);
	// zero starts at rest.
	Temp float64 `json:"temp"`
	// Seed derives the velocity initialization (default 1).
	Seed int64 `json:"seed"`
	// ThermoEvery is the sampling cadence in steps (default 20).
	ThermoEvery int `json:"thermo_every"`
}

type trajectoryResponse struct {
	Thermo []md.Thermo `json:"thermo"`
	Pos    []float64   `json:"pos"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the batcher counters in Prometheus text format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.bat.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE dpserve_requests_accepted_total counter\ndpserve_requests_accepted_total %d\n", st.Accepted)
	fmt.Fprintf(w, "# TYPE dpserve_requests_rejected_total counter\ndpserve_requests_rejected_total %d\n", st.Rejected)
	fmt.Fprintf(w, "# TYPE dpserve_requests_expired_total counter\ndpserve_requests_expired_total %d\n", st.Expired)
	fmt.Fprintf(w, "# TYPE dpserve_requests_completed_total counter\ndpserve_requests_completed_total %d\n", st.Completed)
	fmt.Fprintf(w, "# TYPE dpserve_batches_total counter\ndpserve_batches_total %d\n", st.Batches)
	fmt.Fprintf(w, "# TYPE dpserve_batched_frames_total counter\ndpserve_batched_frames_total %d\n", st.Frames)
	fmt.Fprintf(w, "# TYPE dpserve_batch_max_frames gauge\ndpserve_batch_max_frames %d\n", st.MaxBatch)
	fmt.Fprintf(w, "# TYPE dpserve_queue_depth gauge\ndpserve_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(w, "# TYPE dpserve_uptime_seconds gauge\ndpserve_uptime_seconds %g\n", time.Since(s.start).Seconds())
}

func (s *server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req frameRequest
	if !s.decode(w, r, &req) {
		return
	}
	box, list, err := s.frameList(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
	defer cancel()
	var out deepmd.Result
	if err := s.bat.Evaluate(ctx, req.Pos, req.Types, len(req.Types), list, box, &out); err != nil {
		s.fail(w, evaluateStatus(err), err)
		return
	}
	s.ok(w, evaluateResponse{Energy: out.Energy, Forces: out.Force, Virial: out.Virial[:]})
}

func (s *server) handleRelax(w http.ResponseWriter, r *http.Request) {
	var req relaxRequest
	if !s.decode(w, r, &req) {
		return
	}
	box, err := s.validateFrame(&req.frameRequest)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.MaxSteps <= 0 {
		req.MaxSteps = 200
	} else if req.MaxSteps > 10000 {
		req.MaxSteps = 10000
	}
	sys := s.system(&req.frameRequest, box)
	res, err := md.Relax(sys, s.bat, md.RelaxOptions{
		Spec:     s.spec,
		MaxSteps: req.MaxSteps,
		Ftol:     req.Ftol,
		StepMax:  req.StepMax,
		Workers:  1,
	})
	if err != nil {
		s.fail(w, evaluateStatus(err), err)
		return
	}
	s.ok(w, relaxResponse{Energy: res.Energy, Fmax: res.Fmax, Steps: res.Steps, Converged: res.Converged, Pos: sys.Pos})
}

func (s *server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	var req trajectoryRequest
	if !s.decode(w, r, &req) {
		return
	}
	box, err := s.validateFrame(&req.frameRequest)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Steps <= 0 || req.Steps > 10000 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("steps %d out of range (1..10000)", req.Steps))
		return
	}
	if req.Dt <= 0 {
		req.Dt = 5e-4
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	sys := s.system(&req.frameRequest, box)
	if req.Temp > 0 {
		sys.InitVelocities(req.Temp, req.Seed)
	}
	sim, err := deepmd.NewSimulation(sys, s.bat, deepmd.SimOptions{
		Dt:          req.Dt,
		Spec:        s.spec,
		ThermoEvery: req.ThermoEvery,
		Workers:     1,
	})
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := sim.Run(req.Steps); err != nil {
		s.fail(w, evaluateStatus(err), err)
		return
	}
	s.ok(w, trajectoryResponse{Thermo: sim.Log, Pos: sys.Pos})
}

// system builds a mutable md.System from a validated frame, with masses
// from the model config.
func (s *server) system(req *frameRequest, box *neighbor.Box) *md.System {
	pos := make([]float64, len(req.Pos))
	copy(pos, req.Pos)
	return &md.System{
		Pos:        pos,
		Types:      req.Types,
		MassByType: s.cfg.Masses,
		Box:        *box,
		Vel:        make([]float64, len(req.Pos)),
	}
}

// decode reads the JSON body; a false return means the response was
// already written.
func (s *server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// validateFrame checks the frame against the model.
func (s *server) validateFrame(req *frameRequest) (*neighbor.Box, error) {
	n := len(req.Types)
	if n == 0 {
		return nil, errors.New("empty frame")
	}
	if len(req.Pos) != 3*n {
		return nil, fmt.Errorf("pos length %d, want 3*%d", len(req.Pos), n)
	}
	ntypes := len(s.cfg.Sel)
	for i, t := range req.Types {
		if t < 0 || t >= ntypes {
			return nil, fmt.Errorf("types[%d] = %d out of range (model has %d types)", i, t, ntypes)
		}
	}
	for k := 0; k < 3; k++ {
		if req.Box[k] <= 0 {
			return nil, fmt.Errorf("box[%d] = %g must be positive", k, req.Box[k])
		}
	}
	return &neighbor.Box{L: req.Box}, nil
}

// frameList validates the frame and builds its neighbor list; either
// failing is the client's error. Build refuses non-finite positions and box
// edges (neighbor.ErrNonFinite), which validateFrame lets through.
func (s *server) frameList(req *frameRequest) (*neighbor.Box, *neighbor.List, error) {
	box, err := s.validateFrame(req)
	if err != nil {
		return nil, nil, err
	}
	list, err := neighbor.Build(s.spec, req.Pos, req.Types, len(req.Types), box, 1)
	return box, list, err
}

// requestTimeout resolves the per-request deadline: the server default,
// overridable (within it) by a ?timeout=250ms query parameter.
func (s *server) requestTimeout(r *http.Request) time.Duration {
	if q := r.URL.Query().Get("timeout"); q != "" {
		if d, err := time.ParseDuration(q); err == nil && d > 0 && d < s.timeout {
			return d
		}
	}
	return s.timeout
}

// evaluateStatus maps batcher errors onto HTTP statuses: explicit
// backpressure is 429 (retryable), a draining server 503, an expired
// deadline 504.
func evaluateStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) ok(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(body); err != nil && s.logger != nil {
		s.logger.Printf("encode response: %v", err)
	}
}

func (s *server) fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
