package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	deepmd "deepmd-go"
	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/serve"
)

// Sizing of serve_http_closed2: two closed-loop clients (dpserve's callers
// are MD/relax/learn drivers that wait for forces before the next step),
// 192-atom frames cycling through 16 seeded jittered variants.
const (
	serveClients     = 2
	serveVariants    = 16
	serveJitter      = 0.05 // Angstrom
	serveWarmup      = 200
	serveVerifyEvery = 50
)

// frameBody is dpserve's /v1/evaluate request.
type frameBody struct {
	Pos   []float64  `json:"pos"`
	Types []int      `json:"types"`
	Box   [3]float64 `json:"box"`
}

// evalBody is dpserve's /v1/evaluate response.
type evalBody struct {
	Energy float64   `json:"energy"`
	Forces []float64 `json:"forces"`
	Virial []float64 `json:"virial"`
}

// serveFrames generates the request frames from the seed: a 4x4x4 water
// box (192 atoms) and serveVariants jittered copies of it.
func serveFrames(seed int64) []frameBody {
	frames := make([]frameBody, serveVariants)
	for v := range frames {
		cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, seed)
		lattice.Perturb(cell, serveJitter, seed*1000+int64(v))
		frames[v] = frameBody{Pos: cell.Pos, Types: cell.Types, Box: cell.Box.L}
	}
	return frames
}

// buildDpserve builds cmd/dpserve into bench/out/bin unless a prebuilt
// binary was handed in. Build time is excluded from every metric.
func buildDpserve(env *runEnv) (string, error) {
	if env.opt.dpserve != "" {
		return env.opt.dpserve, nil
	}
	t0 := time.Now()
	bin := filepath.Join(env.outDir, "bin", "dpserve")
	cmd := exec.Command("go", "build", "-o", bin, "deepmd-go/cmd/dpserve")
	cmd.Dir = env.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build cmd/dpserve: %v\n%s", err, out)
	}
	env.buildTime += time.Since(t0)
	env.opt.dpserve = bin
	return bin, nil
}

// daemon is a running dpserve process under test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	logf *os.File
}

// startDaemon boots dpserve with its shipped defaults (window 2 ms,
// max-batch 8) on a free loopback port and waits for /healthz.
func startDaemon(env *runEnv, bin, modelPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logf, err := os.Create(filepath.Join(env.outDir, fmt.Sprintf("dpserve-%d.log", selfPID)))
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: exec.Command(bin, "-model", modelPath, "-addr", addr), url: "http://" + addr, logf: logf}
	d.cmd.Stderr = logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dpserve did not answer /healthz within 15s (log: %s)", logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if it lingers, and waits
// until the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.logf.Close()
}

// counters scrapes dpserve's /metrics into name -> value.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// loadResult is what one closed-loop window produced.
type loadResult struct {
	latMs    []float64
	wall     time.Duration
	kept     map[int][]byte // op index -> response body, every serveVerifyEvery-th
	failures []string
	respLen  []float64
}

// closedLoop runs total operations from serveClients goroutines: each
// claims the next operation index only after its previous one returned, so
// a slow system receives less load. It returns every operation's wall time
// in ms and the wall time of the whole window.
func closedLoop(total int, do func(lane, op int)) (latMs []float64, wall time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for lane := 0; lane < serveClients; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op := int(next.Add(1)) - 1
				if op >= total {
					return
				}
				start := time.Now()
				do(lane, op)
				lat := ms(time.Since(start))
				mu.Lock()
				latMs = append(latMs, lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return latMs, time.Since(t0)
}

// postLoop sends total POST /v1/evaluate requests in a closed loop, one
// keep-alive connection per client. Operation i carries frame variant
// i mod serveVariants.
func postLoop(url string, bodies [][]byte, total int, rec *recorder) *loadResult {
	lr := &loadResult{kept: make(map[int][]byte)}
	var mu sync.Mutex
	clients := make([]*http.Client, serveClients)
	bufs := make([]bytes.Buffer, serveClients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		defer clients[i].CloseIdleConnections()
	}
	lr.latMs, lr.wall = closedLoop(total, func(lane, op int) {
		id := -1
		if rec != nil {
			id = rec.begin("serve.http_request", lane, -1, op)
		}
		buf := &bufs[lane]
		resp, err := clients[lane].Post(url+"/v1/evaluate", "application/json", bytes.NewReader(bodies[op%len(bodies)]))
		status := 0
		if err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		if rec != nil {
			rec.end(id)
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			lr.failures = append(lr.failures, fmt.Sprintf("request %d: %v", op, err))
		case status != http.StatusOK:
			lr.failures = append(lr.failures, fmt.Sprintf("request %d: HTTP %d: %s", op, status, bytes.TrimSpace(buf.Bytes())))
		default:
			lr.respLen = append(lr.respLen, float64(buf.Len()))
			if op%serveVerifyEvery == 0 {
				lr.kept[op] = bytes.Clone(buf.Bytes())
			}
		}
	})
	return lr
}

// serveReference evaluates frames on an engine opened from the same model
// file, each on a list built exactly as dpserve builds it.
type serveReference struct {
	eng    *deepmd.Engine
	spec   neighbor.Spec
	frames []frameBody
	lists  []*neighbor.List
	want   []*core.Result
}

func newServeReference(modelPath string, frames []frameBody) (*serveReference, error) {
	model, err := deepmd.LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	eng, err := deepmd.Open(model, deepmd.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	ref := &serveReference{eng: eng, spec: deepmd.SpecFor(model.Cfg), frames: frames}
	for i := range frames {
		f := &frames[i]
		box := &neighbor.Box{L: f.Box}
		list, err := neighbor.Build(ref.spec, f.Pos, f.Types, len(f.Types), box, 1)
		if err != nil {
			return nil, err
		}
		want, err := eng.Evaluate(f.Pos, f.Types, len(f.Types), list, box)
		if err != nil {
			return nil, err
		}
		ref.lists = append(ref.lists, list)
		ref.want = append(ref.want, want)
	}
	return ref, nil
}

// verify compares one kept response bitwise against the reference.
func (ref *serveReference) verify(op int, body []byte) error {
	var got evalBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("request %d: undecodable response: %v", op, err)
	}
	want := ref.want[op%len(ref.want)]
	if got.Energy != want.Energy {
		return fmt.Errorf("request %d: energy %.17g, reference %.17g", op, got.Energy, want.Energy)
	}
	if len(got.Forces) != len(want.Force) || len(got.Virial) != len(want.Virial) {
		return fmt.Errorf("request %d: %d forces and %d virial components, reference has %d and %d", op, len(got.Forces), len(got.Virial), len(want.Force), len(want.Virial))
	}
	for i, f := range want.Force {
		if got.Forces[i] != f {
			return fmt.Errorf("request %d: force on atom %d axis %d is %.17g, reference %.17g", op, i/3, i%3, got.Forces[i], f)
		}
	}
	for i, v := range want.Virial {
		if got.Virial[i] != v {
			return fmt.Errorf("request %d: virial[%d] is %.17g, reference %.17g", op, i, got.Virial[i], v)
		}
	}
	return nil
}

// runServe executes serve_http_closed2 against a real dpserve process.
func runServe(env *runEnv) (*runResult, *timing, error) {
	bin, err := buildDpserve(env)
	if err != nil {
		return nil, nil, err
	}
	model, err := quickWaterModel()
	if err != nil {
		return nil, nil, err
	}
	modelPath := filepath.Join(env.outDir, fmt.Sprintf("quick-water-%d.dpgo", selfPID))
	if err := model.SaveFile(modelPath); err != nil {
		return nil, nil, err
	}
	defer os.Remove(modelPath)

	frames := serveFrames(env.opt.seed)
	bodies := make([][]byte, len(frames))
	for i := range frames {
		if bodies[i], err = json.Marshal(&frames[i]); err != nil {
			return nil, nil, err
		}
	}
	d, err := startDaemon(env, bin, modelPath)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		d.stop()
		os.Remove(d.logf.Name()) // kept only when the daemon failed to boot
	}()
	warm := serveWarmup
	if env.opt.smoke {
		warm = 2 * serveClients
	}
	if w := postLoop(d.url, bodies, warm, nil); len(w.failures) > 0 {
		return nil, nil, fmt.Errorf("warm-up: %s", w.failures[0])
	}
	env.setupDone()
	if env.opt.setupOnly {
		return nil, nil, nil
	}

	pid := d.cmd.Process.Pid
	if env.opt.trace {
		env.rec = newRecorder(env.ops)
	}
	before, err := d.counters()
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, nil, err
	}
	lr := postLoop(d.url, bodies, env.ops, env.rec)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, nil, err
	}
	after, err := d.counters()
	if err != nil {
		return nil, nil, err
	}

	res := env.newResult(len(frames[0].Types))
	res.Attempted = env.ops
	for _, f := range lr.failures {
		res.fail("%s", f)
	}
	tm := &timing{stepMs: lr.latMs, wall: lr.wall, steps: max(1, env.ops-len(lr.failures)), cpu: cpu1.sub(cpu0)}
	if tm.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, nil, err
	}

	ref, err := newServeReference(modelPath, frames)
	if err == nil {
		for op := 0; op < env.ops; op += serveVerifyEvery {
			if body, ok := lr.kept[op]; ok {
				if verr := ref.verify(op, body); verr != nil {
					res.fail("%v", verr)
					err = errors.Join(err, verr)
				}
			}
		}
	}
	res.check("responses_vs_engine_bitwise", err)

	if env.opt.trace && ref != nil {
		res.check("layer_probes", serveLayerMetrics(env, res, ref, bodies, lr, tm, before, after))
	}
	return res, tm, nil
}

// serveLayerMetrics takes the serving stack apart from the harness side:
// the same engine and batcher configuration dpserve ships, driven without
// HTTP, so the differences isolate each layer's share of a request.
func serveLayerMetrics(env *runEnv, res *runResult, ref *serveReference, bodies [][]byte, lr *loadResult, tm *timing, before, after map[string]float64) error {
	d := env.decl
	s := make(sampleSet)
	n := 400
	if env.opt.smoke {
		n = 20
	}
	nframes := len(ref.frames)
	boxes := make([]*neighbor.Box, nframes)
	for i := range boxes {
		boxes[i] = &neighbor.Box{L: ref.frames[i].Box}
	}

	httpP50 := median(lr.latMs)
	res.add(d, "serve.http_ms_p50", httpP50, len(lr.latMs))
	res.add(d, "serve.http_ms_p99", percentile(lr.latMs, 0.99), len(lr.latMs))
	res.add(d, "serve.req_per_s", float64(tm.steps)/lr.wall.Seconds(), len(lr.latMs))

	// Engine alone: one caller, prebuilt lists.
	var out core.Result
	for i := 0; i < n; i++ {
		f := &ref.frames[i%nframes]
		var err error
		s.time("serve.engine_ms_p50", func() {
			err = ref.eng.EvaluateInto(f.Pos, f.Types, len(f.Types), ref.lists[i%nframes], boxes[i%nframes], &out)
		})
		if err != nil {
			return err
		}
	}
	// Engine behind the batcher, dpserve's defaults, as many closed-loop
	// callers as the HTTP run had clients: adds queueing and the coalesce
	// window, still no HTTP.
	bat := serve.New(ref.eng, serve.Options{})
	errs := make([]error, serveClients)
	callerOut := make([]core.Result, serveClients)
	s["serve.inproc_ms_p50"], _ = closedLoop(n, func(lane, i int) {
		f := &ref.frames[i%nframes]
		if err := bat.Evaluate(context.Background(), f.Pos, f.Types, len(f.Types), ref.lists[i%nframes], boxes[i%nframes], &callerOut[lane]); err != nil {
			errs[lane] = err
		}
	})
	if err := errors.Join(append(errs, bat.Close(context.Background()))...); err != nil {
		return err
	}
	inproc := s.emit(env, res, "serve.inproc_ms_p50")
	engine := s.emit(env, res, "serve.engine_ms_p50")
	res.add(d, "serve.batcher_overhead_ms", inproc-engine, len(s["serve.inproc_ms_p50"]))
	res.add(d, "dpserve.http_overhead_ms", httpP50-inproc, len(lr.latMs))

	// The daemon's JSON work per request: decode the request, encode the
	// response.
	respBody, err := json.Marshal(evalBody{Energy: ref.want[0].Energy, Forces: ref.want[0].Force, Virial: ref.want[0].Virial[:]})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var req frameBody
		var resp evalBody
		var err error
		s.time("dpserve.json_roundtrip_ms", func() {
			if err = json.Unmarshal(bodies[i%nframes], &req); err == nil {
				if err = json.Unmarshal(respBody, &resp); err == nil {
					_, err = json.Marshal(&resp)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	s.emit(env, res, "dpserve.json_roundtrip_ms")
	var reqLen []float64
	for _, b := range bodies {
		reqLen = append(reqLen, float64(len(b)))
	}
	res.add(d, "dpserve.req_bytes", median(reqLen), len(reqLen))
	res.add(d, "dpserve.resp_bytes", median(lr.respLen), len(lr.respLen))

	delta := func(name string) float64 { return after[name] - before[name] }
	res.add(d, "serve.coalesce_factor", delta("dpserve_batched_frames_total")/delta("dpserve_batches_total"), int(delta("dpserve_batches_total")))
	res.add(d, "serve.rejected", delta("dpserve_requests_rejected_total"), 1)
	res.add(d, "serve.expired", delta("dpserve_requests_expired_total"), 1)

	// core: what coalescing buys — eight frames through one ComputeBatch
	// sweep, per frame.
	batch := make([]core.Frame, 8)
	outs := make([]core.Result, len(batch))
	for i := range batch {
		f := &ref.frames[i%nframes]
		batch[i] = core.Frame{Pos: f.Pos, Types: f.Types, Nloc: len(f.Types), List: ref.lists[i%nframes], Box: boxes[i%nframes], Out: &outs[i]}
	}
	for i := 0; i < max(3, n/8); i++ {
		var err error
		t0 := time.Now()
		err = ref.eng.ComputeBatch(batch)
		s["core.batch_ms_per_frame"] = append(s["core.batch_ms_per_frame"], ms(time.Since(t0))/float64(len(batch)))
		if err != nil {
			return err
		}
	}
	s.emit(env, res, "core.batch_ms_per_frame")

	// neighbor: the per-request build dpserve does, one worker.
	for i := range ref.frames {
		f := &ref.frames[i]
		if _, err := neighborProbes(s, ref.spec, f.Pos, f.Types, len(f.Types), boxes[i], 1, probeReps(env)); err != nil {
			return err
		}
	}
	s.emit(env, res, "neighbor.build_ms")
	s.emit(env, res, "neighbor.entries_per_atom")
	s.emit(env, res, "neighbor.format_ms")

	runtimeMetrics(env, res, tm.cpu, nil, nil)
	return nil
}
