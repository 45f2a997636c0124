package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// stubEval is a controllable engine: it can block mid-evaluation (gating
// on release) and counts the requests it evaluated, so the queueing
// semantics are pinned deterministically, without evaluation cost. It
// answers a request with its nloc as the energy.
type stubEval struct {
	mu      sync.Mutex
	served  int           // requests evaluated
	started chan struct{} // signaled when an evaluation begins (if non-nil)
	release chan struct{} // evaluation blocks until a receive (if non-nil)
	poison  int           // a request with this nloc fails (if non-zero)
}

func (s *stubEval) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	if s.started != nil {
		s.started <- struct{}{}
	}
	if s.release != nil {
		<-s.release
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	if s.poison != 0 && nloc == s.poison {
		return fmt.Errorf("stub: request with nloc %d is poisoned", nloc)
	}
	out.Energy = float64(nloc)
	return nil
}

func (s *stubEval) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// pooledStub is a stubEval that reports an evaluator-pool bound.
type pooledStub struct {
	*stubEval
	slots int
}

func (p pooledStub) MaxConcurrency() int { return p.slots }

// waterEngine builds a small real engine plus a few distinct water
// configurations, each with its solo Compute result.
func waterEngine(t *testing.T, maxConc int) (*core.Engine, []core.Frame, []core.Result) {
	t.Helper()
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(m, core.Plan{Workers: 1, MaxConcurrency: maxConc})
	if err != nil {
		t.Fatal(err)
	}
	var frames []core.Frame
	var refs []core.Result
	for _, seed := range []int64{3, 5, 7, 9} {
		cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, seed)
		spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
		list, err := neighbor.Build(spec, cell.Pos, cell.Types, cell.N(), &cell.Box, 1)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, core.Frame{Pos: cell.Pos, Types: cell.Types, Nloc: cell.N(), List: list, Box: &cell.Box})
		var ref core.Result
		if err := eng.Compute(cell.Pos, cell.Types, cell.N(), list, &cell.Box, &ref); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	return eng, frames, refs
}

// One call per pool slot: with two slots, two requests evaluate at once
// and a third waits in the queue until one of them is answered.
func TestBatcherOneCallPerPoolSlot(t *testing.T) {
	stub := &stubEval{started: make(chan struct{}, 16), release: make(chan struct{})}
	b := New(pooledStub{stub, 2}, Options{})
	defer b.Close(context.Background())
	if got := b.Options().QueueLimit; got != DefaultQueueLimit {
		t.Fatalf("zero QueueLimit resolved to %d, want %d", got, DefaultQueueLimit)
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out core.Result
			if err := b.Evaluate(context.Background(), nil, nil, 1, nil, nil, &out); err != nil {
				t.Errorf("evaluate: %v", err)
			}
		}()
	}
	<-stub.started
	<-stub.started
	waitQueueDepth(t, b, 1)
	select {
	case <-stub.started:
		t.Fatal("a third request started with two dispatchers busy")
	case <-time.After(20 * time.Millisecond):
	}
	stub.release <- struct{}{}
	<-stub.started // the queued request takes the freed dispatcher
	stub.release <- struct{}{}
	stub.release <- struct{}{}
	wg.Wait()
	if st := b.Stats(); st.Completed != 3 || stub.count() != 3 {
		t.Fatalf("stats %+v, served %d, want 3 requests completed", st, stub.count())
	}
}

// A caller that finds a slot free evaluates on its own goroutine: New
// starts no goroutine, and Evaluate allocates nothing.
func TestBatcherNoGoroutineNoAlloc(t *testing.T) {
	before := runtime.NumGoroutine()
	stub := &stubEval{}
	b := New(pooledStub{stub, 4}, Options{})
	defer b.Close(context.Background())
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
	var out core.Result
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.Evaluate(context.Background(), nil, nil, 1, nil, nil, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Evaluate allocates %v times per call, want 0", allocs)
	}
}

// A request whose context has already ended is refused before it takes a
// free slot: the caller gets the context error, the request is counted
// Expired, and the engine never sees it.
func TestBatcherEndedContextNotEvaluated(t *testing.T) {
	stub := &stubEval{}
	b := New(pooledStub{stub, 2}, Options{})
	defer b.Close(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 100
	for i := 0; i < n; i++ {
		var out core.Result
		if err := b.Evaluate(ctx, nil, nil, 1, nil, nil, &out); !errors.Is(err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, err)
		}
	}
	if st := b.Stats(); st.Expired != n || st.Completed != 0 || stub.count() != 0 {
		t.Fatalf("stats %+v, served %d: want %d expired and none evaluated", st, stub.count(), n)
	}
}

// A full queue rejects immediately with ErrQueueFull — explicit
// backpressure, not unbounded latency.
func TestBatcherBackpressure(t *testing.T) {
	stub := &stubEval{started: make(chan struct{}, 16), release: make(chan struct{})}
	b := New(stub, Options{QueueLimit: 2})
	defer b.Close(context.Background())

	var wg sync.WaitGroup
	evaluate := func() {
		defer wg.Done()
		var out core.Result
		if err := b.Evaluate(context.Background(), nil, nil, 1, nil, nil, &out); err != nil {
			t.Errorf("evaluate: %v", err)
		}
	}
	wg.Add(1)
	go evaluate()
	<-stub.started // dispatcher busy; queue empty
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go evaluate()
	}
	waitQueueDepth(t, b, 2) // queue now at its limit

	var out core.Result
	if err := b.Evaluate(context.Background(), nil, nil, 1, nil, nil, &out); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	if st := b.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", st.Rejected)
	}

	// Drain: the accepted requests all complete.
	for i := 0; i < 3; i++ {
		stub.release <- struct{}{}
		if i < 2 {
			<-stub.started
		}
	}
	wg.Wait()
	if served := stub.count(); served != 3 {
		t.Fatalf("served %d, want 3", served)
	}
}

// A request whose deadline expires while queued is abandoned: the caller
// gets the context error and the request is dropped before evaluation.
func TestBatcherDeadlineWhileQueued(t *testing.T) {
	stub := &stubEval{started: make(chan struct{}, 16), release: make(chan struct{})}
	b := New(stub, Options{QueueLimit: 8})
	defer b.Close(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var out core.Result
		if err := b.Evaluate(context.Background(), nil, nil, 1, nil, nil, &out); err != nil {
			t.Errorf("head evaluate: %v", err)
		}
	}()
	<-stub.started // dispatcher busy

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var out core.Result
	err := b.Evaluate(ctx, nil, nil, 99, nil, nil, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline err = %v, want DeadlineExceeded", err)
	}

	stub.release <- struct{}{} // the head request finishes
	// The abandoned frame must not be evaluated: if the dispatcher picked
	// it up anyway, a second dispatch would start.
	select {
	case <-stub.started:
		stub.release <- struct{}{}
		t.Fatal("abandoned request was dispatched")
	case <-time.After(50 * time.Millisecond):
	}
	wg.Wait()
	if served := stub.count(); served != 1 {
		t.Fatalf("served %d frames, want 1 (abandoned frame dropped)", served)
	}
	if st := b.Stats(); st.Expired != 1 {
		t.Fatalf("expired %d, want 1", st.Expired)
	}
}

// Close drains queued work, then refuses new requests with ErrClosed.
func TestBatcherCloseDrains(t *testing.T) {
	stub := &stubEval{}
	b := New(stub, Options{QueueLimit: 8})
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out core.Result
			errs[i] = b.Evaluate(context.Background(), nil, nil, i, nil, nil, &out)
		}(i)
	}
	// Let the requests enqueue, then drain.
	waitFor(t, func() bool { return b.Stats().Accepted+b.Stats().Rejected == n })
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if served := stub.count(); served != n {
		t.Fatalf("served %d, want %d", served, n)
	}
	var out core.Result
	if err := b.Evaluate(context.Background(), nil, nil, 1, nil, nil, &out); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A failing request fails alone: among concurrent callers, the one whose
// evaluation fails gets the error and the others get their results, with
// every request counted once.
func TestBatcherFailingFrameFailsAlone(t *testing.T) {
	const poison = -7
	stub := &stubEval{poison: poison}
	b := New(pooledStub{stub, 2}, Options{QueueLimit: 16})
	defer b.Close(context.Background())

	const rounds = 3
	nlocs := []int{1, 2, poison, 4}
	for round := 0; round < rounds; round++ {
		outs := make([]core.Result, len(nlocs))
		errs := make([]error, len(nlocs))
		var wg sync.WaitGroup
		for i, nloc := range nlocs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = b.Evaluate(context.Background(), nil, nil, nloc, nil, nil, &outs[i])
			}()
		}
		wg.Wait()
		for i, nloc := range nlocs {
			switch {
			case nloc == poison:
				if errs[i] == nil {
					t.Fatalf("round %d: the poisoned request succeeded", round)
				}
			case errs[i] != nil:
				t.Fatalf("round %d: request %d failed with its neighbour's error: %v", round, i, errs[i])
			case outs[i].Energy != float64(nloc):
				t.Fatalf("round %d: request %d got energy %g, want %d", round, i, outs[i].Energy, nloc)
			}
		}
	}
	if st := b.Stats(); st.Accepted != 4*rounds || st.Completed != 4*rounds || stub.count() != 4*rounds {
		t.Fatalf("stats %+v, served %d: want %d requests accepted, evaluated and completed once each", st, stub.count(), 4*rounds)
	}
}

// The same through a real engine: a coordinate of 1e308 in an
// open-boundary frame — which JSON carries and frame validation accepts —
// overflows its distances and fails its request; the good requests
// submitted concurrently with it, on the same two pooled evaluators, are
// bitwise a solo Evaluate.
func TestBatcherFailingFrameRealEngine(t *testing.T) {
	eng, frames, refs := waterEngine(t, 2)
	const bad = 2
	pos := append([]float64(nil), frames[bad].Pos...)
	pos[4] = 1e308
	frames[bad].Pos, frames[bad].Box = pos, nil

	b := New(eng, Options{QueueLimit: 16})
	defer b.Close(context.Background())
	const rounds = 3
	for round := 0; round < rounds; round++ {
		outs := make([]core.Result, len(frames))
		errs := make([]error, len(frames))
		var wg sync.WaitGroup
		for i := range frames {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f := frames[i]
				errs[i] = b.Evaluate(context.Background(), f.Pos, f.Types, f.Nloc, f.List, f.Box, &outs[i])
			}()
		}
		wg.Wait()
		for i := range frames {
			if i == bad {
				if errs[i] == nil {
					t.Fatal("the frame with a 1e308 coordinate evaluated without error")
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("round %d: frame %d failed with its neighbour's error: %v", round, i, errs[i])
			}
			got, want := &outs[i], &refs[i]
			same := math.Float64bits(got.Energy) == math.Float64bits(want.Energy) && got.Virial == want.Virial
			for k := range want.Force {
				same = same && math.Float64bits(got.Force[k]) == math.Float64bits(want.Force[k])
			}
			for k := range want.AtomEnergy {
				same = same && math.Float64bits(got.AtomEnergy[k]) == math.Float64bits(want.AtomEnergy[k])
			}
			if !same || len(got.Force) != len(want.Force) || len(got.AtomEnergy) != len(want.AtomEnergy) {
				t.Fatalf("round %d: frame %d differs from a solo Evaluate", round, i)
			}
		}
	}
	if st := b.Stats(); st.Completed != rounds*uint64(len(frames)) {
		t.Fatalf("stats %+v, want %d requests completed", st, rounds*len(frames))
	}
}

// waitQueueDepth polls until the queue holds exactly n requests.
func waitQueueDepth(t *testing.T, b *Batcher, n int) {
	t.Helper()
	waitFor(t, func() bool { return b.Stats().QueueDepth == n })
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
