package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/serve"

	deepmd "deepmd-go"
)

// testServer stands up the full stack — tiny water model, engine,
// batcher, HTTP handler — plus a reference frame for requests.
func testServer(t *testing.T, opt serve.Options) (*httptest.Server, *deepmd.Engine, frameRequest) {
	t.Helper()
	model, err := buildModel("", "water")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := deepmd.Open(model, deepmd.WithWorkers(1), deepmd.WithMaxConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	bat := serve.New(eng, opt)
	t.Cleanup(func() { bat.Close(context.Background()) })
	srv := newServer(model.Cfg, bat, 30*time.Second, log.New(io.Discard, "", 0))
	hs := httptest.NewServer(srv.handler())
	t.Cleanup(hs.Close)

	cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 3)
	return hs, eng, frameRequest{Pos: cell.Pos, Types: cell.Types, Box: cell.Box.L}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// Concurrent evaluate calls through the daemon return results
// bit-identical to a direct engine evaluation.
func TestEvaluateEndpointBitIdentical(t *testing.T) {
	hs, eng, frame := testServer(t, serve.Options{MaxBatch: 8, QueueLimit: 64})

	spec := neighbor.Spec{Rcut: 4.0, Skin: 1.0, Sel: []int{12, 24}}
	box := &neighbor.Box{L: frame.Box}
	list, err := neighbor.Build(spec, frame.Pos, frame.Types, len(frame.Types), box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want core.Result
	if err := eng.EvaluateInto(frame.Pos, frame.Types, len(frame.Types), list, box, &want); err != nil {
		t.Fatal(err)
	}

	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, data := postJSON(t, hs.URL+"/v1/evaluate", frame)
			if resp.StatusCode != http.StatusOK {
				errs[g] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var out evaluateResponse
			if err := json.Unmarshal(data, &out); err != nil {
				errs[g] = err
				return
			}
			if out.Energy != want.Energy {
				errs[g] = fmt.Errorf("energy %.17g != direct %.17g", out.Energy, want.Energy)
				return
			}
			for i := range want.Force {
				if math.Float64bits(out.Forces[i]) != math.Float64bits(want.Force[i]) {
					errs[g] = fmt.Errorf("forces[%d] differs from direct evaluation", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
}

func TestEvaluateEndpointRejectsBadFrames(t *testing.T) {
	hs, _, frame := testServer(t, serve.Options{})
	for name, body := range map[string]any{
		"empty":         frameRequest{},
		"pos mismatch":  frameRequest{Pos: frame.Pos[:9], Types: frame.Types, Box: frame.Box},
		"bad type":      frameRequest{Pos: frame.Pos, Types: append([]int{99}, frame.Types[1:]...), Box: frame.Box},
		"zero box":      frameRequest{Pos: frame.Pos, Types: frame.Types},
		"unknown field": map[string]any{"positions": []float64{0}},
		"not json":      nil,
	} {
		t.Run(name, func(t *testing.T) {
			var resp *http.Response
			var data []byte
			if body == nil {
				r, err := http.Post(hs.URL+"/v1/evaluate", "application/json", strings.NewReader("nope"))
				if err != nil {
					t.Fatal(err)
				}
				data, _ = io.ReadAll(r.Body)
				r.Body.Close()
				resp = r
			} else {
				resp, data = postJSON(t, hs.URL+"/v1/evaluate", body)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body not JSON: %s", data)
			}
		})
	}
	if resp, _ := postJSON(t, hs.URL+"/v1/trajectory", trajectoryRequest{frameRequest: frame, Steps: 1 << 20}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge step count: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(hs.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET evaluate: status %d, want 405", resp.StatusCode)
	}
}

// JSON has no NaN or infinity literal and the decoder refuses numbers
// beyond float64's range, so these frames cannot arrive over the wire; the
// check behind the decoder refuses them all the same, as client errors,
// where they used to evaluate with the bad atom neighborless or the bad
// axis non-periodic.
func TestFrameListRejectsNonFinite(t *testing.T) {
	model, err := buildModel("", "water")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(model.Cfg, nil, 0, nil)
	cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 3)
	for name, edit := range map[string]func(*frameRequest){
		"NaN position":  func(r *frameRequest) { r.Pos[3*5+1] = math.NaN() },
		"+Inf position": func(r *frameRequest) { r.Pos[3*5] = math.Inf(1) },
		"NaN box":       func(r *frameRequest) { r.Box[2] = math.NaN() },
	} {
		req := frameRequest{Pos: slices.Clone(cell.Pos), Types: cell.Types, Box: cell.Box.L}
		edit(&req)
		if _, _, err := srv.frameList(&req); !errors.Is(err, neighbor.ErrNonFinite) {
			t.Fatalf("%s: error %v, want neighbor.ErrNonFinite", name, err)
		}
	}
}

// The relax endpoint descends the energy; the trajectory endpoint
// integrates and samples thermo.
func TestRelaxAndTrajectoryEndpoints(t *testing.T) {
	hs, eng, frame := testServer(t, serve.Options{QueueLimit: 64})

	spec := neighbor.Spec{Rcut: 4.0, Skin: 1.0, Sel: []int{12, 24}}
	box := &neighbor.Box{L: frame.Box}
	list, err := neighbor.Build(spec, frame.Pos, frame.Types, len(frame.Types), box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before core.Result
	if err := eng.EvaluateInto(frame.Pos, frame.Types, len(frame.Types), list, box, &before); err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, hs.URL+"/v1/relax", relaxRequest{frameRequest: frame, MaxSteps: 8, StepMax: 0.02})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relax status %d: %s", resp.StatusCode, data)
	}
	var rr relaxResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Energy > before.Energy {
		t.Fatalf("relax raised the energy: %.6f -> %.6f", before.Energy, rr.Energy)
	}
	if len(rr.Pos) != len(frame.Pos) {
		t.Fatalf("relaxed pos length %d, want %d", len(rr.Pos), len(frame.Pos))
	}

	resp, data = postJSON(t, hs.URL+"/v1/trajectory", trajectoryRequest{
		frameRequest: frame, Steps: 4, Dt: 1e-4, Temp: 50, Seed: 7, ThermoEvery: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trajectory status %d: %s", resp.StatusCode, data)
	}
	var tr trajectoryResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Thermo) != 2 {
		t.Fatalf("thermo samples %d, want 2 (4 steps / every 2)", len(tr.Thermo))
	}
	if len(tr.Pos) != len(frame.Pos) {
		t.Fatalf("final pos length %d, want %d", len(tr.Pos), len(frame.Pos))
	}
}

// blockingEval parks dispatches until released, so the queue fills
// deterministically for the backpressure test.
type blockingEval struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingEval) ComputeBatch(frames []core.Frame) error {
	b.started <- struct{}{}
	<-b.release
	for i := range frames {
		frames[i].Out.Energy = 1
	}
	return nil
}

// A saturated queue answers 429 with Retry-After; requests already
// admitted still complete.
func TestEvaluateEndpointBackpressure429(t *testing.T) {
	model, err := buildModel("", "water")
	if err != nil {
		t.Fatal(err)
	}
	be := &blockingEval{started: make(chan struct{}, 8), release: make(chan struct{})}
	bat := serve.New(be, serve.Options{MaxBatch: 1, QueueLimit: 1, Dispatchers: 1})
	defer bat.Close(context.Background())
	srv := newServer(model.Cfg, bat, 30*time.Second, log.New(io.Discard, "", 0))
	hs := httptest.NewServer(srv.handler())
	defer hs.Close()

	cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 3)
	frame := frameRequest{Pos: cell.Pos, Types: cell.Types, Box: cell.Box.L}

	// One request in flight (blocked inside the evaluator), one queued.
	codes := make(chan int, 4)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, hs.URL+"/v1/evaluate", frame)
			codes <- resp.StatusCode
		}()
		if i == 0 {
			<-be.started // first request is on the evaluator
		} else {
			waitFor(t, func() bool { return bat.Stats().QueueDepth == 1 })
		}
	}

	// The queue is full: the next request must bounce immediately.
	resp, data := postJSON(t, hs.URL+"/v1/evaluate", frame)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(be.release)
	<-be.started // second dispatch
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request finished with %d", code)
		}
	}
}

// /metrics is Prometheus text fed by the batcher counters, /healthz is
// plain — and neither carries log lines.
func TestMetricsAndHealthz(t *testing.T) {
	hs, _, frame := testServer(t, serve.Options{QueueLimit: 64})
	if resp, data := postJSON(t, hs.URL+"/v1/evaluate", frame); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, data)
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, "dpserve_requests_completed_total 1") {
		t.Fatalf("metrics missing completed counter:\n%s", text)
	}
	for _, banned := range []string{"dpserve:", "POST", "GET"} {
		if strings.Contains(text, banned) {
			t.Fatalf("metrics body contains log output (%q):\n%s", banned, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
