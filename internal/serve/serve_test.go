package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// stubEval is a controllable BatchEvaluator: it can block mid-dispatch
// (gating on release) and records every batch it saw, so the queueing
// semantics are pinned deterministically, without evaluation cost.
type stubEval struct {
	mu      sync.Mutex
	batches []int         // frame count per dispatch
	served  int           // total frames evaluated
	started chan struct{} // signaled when a dispatch begins (if non-nil)
	release chan struct{} // dispatch blocks until a receive (if non-nil)
	poison  int           // a frame with this Nloc fails its whole batch (if non-zero)
}

func (s *stubEval) ComputeBatch(frames []core.Frame) error {
	if s.started != nil {
		s.started <- struct{}{}
	}
	if s.release != nil {
		<-s.release
	}
	s.mu.Lock()
	s.batches = append(s.batches, len(frames))
	s.served += len(frames)
	s.mu.Unlock()
	for i := range frames {
		if s.poison != 0 && frames[i].Nloc == s.poison {
			return fmt.Errorf("stub: frame %d is poisoned", i)
		}
	}
	for i := range frames {
		frames[i].Out.Energy = float64(frames[i].Nloc)
	}
	return nil
}

func (s *stubEval) snapshot() ([]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.batches...), s.served
}

// waterEngine builds a small real engine plus a few distinct water
// configurations for the bit-identity sweep.
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

// TestBatcherBitIdenticalAcrossCoalesceSizes is the acceptance contract
// of the micro-batcher: concurrent callers answered through it get
// results bit-identical to serial per-request evaluation at every batch
// cap — the same cross-check core.TestEngineConcurrentBitIdentical runs
// for the pool. A gate holds the dispatcher until every caller's first
// request is queued, so each row provably reaches its cap.
func TestBatcherBitIdenticalAcrossCoalesceSizes(t *testing.T) {
	eng, sysFrames, refs := waterEngine(t, 2)
	for _, maxBatch := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("max=%d", maxBatch), func(t *testing.T) {
			gt := newGate(eng)
			b := New(gt, Options{MaxBatch: maxBatch, QueueLimit: 64, Dispatchers: 1})
			defer b.Close(context.Background())
			const callers, evals = 8, 3
			errs := make([]error, callers)
			var wg sync.WaitGroup
			gt.coalesce(t, b, callers, func() {
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						f := sysFrames[g%len(sysFrames)]
						want := refs[g%len(sysFrames)]
						var out core.Result
						for k := 0; k < evals; k++ {
							if err := b.Evaluate(context.Background(), f.Pos, f.Types, f.Nloc, f.List, f.Box, &out); err != nil {
								errs[g] = err
								return
							}
							if out.Energy != want.Energy {
								errs[g] = fmt.Errorf("energy %.17g != serial %.17g", out.Energy, want.Energy)
								return
							}
							for i := range want.Force {
								if math.Float64bits(out.Force[i]) != math.Float64bits(want.Force[i]) {
									errs[g] = fmt.Errorf("force[%d] differs from serial", i)
									return
								}
							}
						}
					}(g)
				}
			})
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("caller %d: %v", g, err)
				}
			}
			st := gt.withoutHeads(b.Stats())
			if st.Completed != callers*evals {
				t.Fatalf("completed %d, want %d", st.Completed, callers*evals)
			}
			if st.MaxBatch != uint64(maxBatch) {
				t.Fatalf("largest batch %d, want the cap %d: the row never coalesced to its cap", st.MaxBatch, maxBatch)
			}
		})
	}
}

// Requests that queue while a dispatch is in flight coalesce into the
// next batch — deterministically pinned with a gated stub.
func TestBatcherCoalescesQueuedRequests(t *testing.T) {
	stub := &stubEval{started: make(chan struct{}, 16), release: make(chan struct{})}
	// Everything queued when the dispatcher frees up joins the next batch
	// immediately.
	b := New(stub, Options{MaxBatch: 8, QueueLimit: 16, Dispatchers: 1})
	defer b.Close(context.Background())

	var wg sync.WaitGroup
	evaluate := func() {
		defer wg.Done()
		var out core.Result
		if err := b.Evaluate(context.Background(), nil, nil, 1, nil, nil, &out); err != nil {
			t.Errorf("evaluate: %v", err)
		}
	}
	// First request reaches the dispatcher and blocks inside the stub.
	wg.Add(1)
	go evaluate()
	<-stub.started
	// Five more queue behind it while it computes.
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go evaluate()
	}
	waitQueueDepth(t, b, 5)
	stub.release <- struct{}{} // finish batch 1 (single frame)
	<-stub.started             // batch 2 begins: must carry all five
	stub.release <- struct{}{}
	wg.Wait()

	batches, served := stub.snapshot()
	if served != 6 {
		t.Fatalf("served %d frames, want 6", served)
	}
	if len(batches) != 2 || batches[0] != 1 || batches[1] != 5 {
		t.Fatalf("batch sizes %v, want [1 5]: queued requests did not coalesce", batches)
	}
	if st := b.Stats(); st.MaxBatch != 5 || st.Batches != 2 {
		t.Fatalf("stats %+v, want MaxBatch 5 over 2 batches", st)
	}
}

// A full queue rejects immediately with ErrQueueFull — explicit
// backpressure, not unbounded latency.
func TestBatcherBackpressure(t *testing.T) {
	stub := &stubEval{started: make(chan struct{}, 16), release: make(chan struct{})}
	b := New(stub, Options{MaxBatch: 1, QueueLimit: 2, Dispatchers: 1})
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
	if _, served := stub.snapshot(); served != 3 {
		t.Fatalf("served %d, want 3", served)
	}
}

// A request whose deadline expires while queued is abandoned: the caller
// gets the context error and the frame is dropped before evaluation.
func TestBatcherDeadlineWhileQueued(t *testing.T) {
	stub := &stubEval{started: make(chan struct{}, 16), release: make(chan struct{})}
	b := New(stub, Options{MaxBatch: 4, QueueLimit: 8, Dispatchers: 1})
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

	stub.release <- struct{}{} // head batch finishes
	// The abandoned frame must not be evaluated: if the dispatcher picked
	// it up anyway, a second dispatch would start.
	select {
	case <-stub.started:
		stub.release <- struct{}{}
		t.Fatal("abandoned request was dispatched")
	case <-time.After(50 * time.Millisecond):
	}
	wg.Wait()
	if _, served := stub.snapshot(); served != 1 {
		t.Fatalf("served %d frames, want 1 (abandoned frame dropped)", served)
	}
	if st := b.Stats(); st.Expired != 1 {
		t.Fatalf("expired %d, want 1", st.Expired)
	}
}

// Close drains queued work, then refuses new requests with ErrClosed.
func TestBatcherCloseDrains(t *testing.T) {
	stub := &stubEval{}
	b := New(stub, Options{MaxBatch: 2, QueueLimit: 8, Dispatchers: 1})
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
	if _, served := stub.snapshot(); served != n {
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

// A failing frame fails alone: when one request of a coalesced batch makes
// the evaluation fail, its caller gets the error and the others get their
// results, with every request counted once.
func TestBatcherFailingFrameFailsAlone(t *testing.T) {
	const poison = -7
	stub := &stubEval{poison: poison}
	// A gate with a cap of four: the dispatcher is held until all four
	// callers of a round have queued, so each round is one batch.
	gt := newGate(stub)
	b := New(gt, Options{MaxBatch: 4, QueueLimit: 16, Dispatchers: 1})
	defer b.Close(context.Background())

	const rounds = 3
	nlocs := []int{1, 2, poison, 4}
	for round := 0; round < rounds; round++ {
		outs := make([]core.Result, len(nlocs))
		errs := make([]error, len(nlocs))
		var wg sync.WaitGroup
		gt.coalesce(t, b, len(nlocs), func() {
			for i, nloc := range nlocs {
				wg.Add(1)
				go func(i, nloc int) {
					defer wg.Done()
					errs[i] = b.Evaluate(context.Background(), nil, nil, nloc, nil, nil, &outs[i])
				}(i, nloc)
			}
		})
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
	// Per round: the batch of four, then each frame alone.
	batches, served := stub.snapshot()
	if len(batches) != 5*rounds || served != 8*rounds {
		t.Fatalf("engine saw batches %v (%d frames), want %d calls of 4, 1, 1, 1, 1", batches, served, 5*rounds)
	}
	for i, n := range batches {
		want := 1
		if i%5 == 0 {
			want = 4
		}
		if n != want {
			t.Fatalf("engine call %d carried %d frames, want %d (all calls: %v)", i, n, want, batches)
		}
	}
	st := gt.withoutHeads(b.Stats())
	if st.Accepted != 4*rounds || st.Completed != 4*rounds || st.Frames != 4*rounds || st.Batches != rounds || st.MaxBatch != 4 {
		t.Fatalf("stats %+v, want %d requests accepted, completed and carried in %d batches of 4", st, 4*rounds, rounds)
	}
}

// The same through a real engine: a coordinate of 1e308 in an open-boundary
// frame — which JSON carries and frame validation accepts — overflows its
// distances and fails the coalesced batch; the other callers' results are
// bitwise a solo Evaluate's.
func TestBatcherFailingFrameRealEngine(t *testing.T) {
	eng, frames, refs := waterEngine(t, 1)
	const bad = 2
	pos := append([]float64(nil), frames[bad].Pos...)
	pos[4] = 1e308
	frames[bad].Pos, frames[bad].Box = pos, nil

	gt := newGate(eng)
	b := New(gt, Options{MaxBatch: len(frames), QueueLimit: 16, Dispatchers: 1})
	defer b.Close(context.Background())
	outs := make([]core.Result, len(frames))
	errs := make([]error, len(frames))
	var wg sync.WaitGroup
	gt.coalesce(t, b, len(frames), func() {
		for i := range frames {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f := frames[i]
				errs[i] = b.Evaluate(context.Background(), f.Pos, f.Types, f.Nloc, f.List, f.Box, &outs[i])
			}(i)
		}
	})
	wg.Wait()
	if st := gt.withoutHeads(b.Stats()); st.Batches != 1 || st.MaxBatch != uint64(len(frames)) || st.Completed != uint64(len(frames)) {
		t.Fatalf("stats %+v, want one batch of %d", st, len(frames))
	}
	for i := range frames {
		if i == bad {
			if errs[i] == nil {
				t.Fatal("the frame with a 1e308 coordinate evaluated without error")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("frame %d failed with its neighbour's error: %v", i, errs[i])
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
			t.Fatalf("frame %d: result after the batch was taken apart differs from a solo Evaluate", i)
		}
	}
}

// The batcher satisfies the potential seam (md.Potential's method set), so
// relaxations and trajectories can route their force calls through it.
func TestBatcherComputeSeam(t *testing.T) {
	stub := &stubEval{}
	b := New(stub, Options{})
	defer b.Close(context.Background())
	var out core.Result
	if err := b.Compute(nil, nil, 42, nil, nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.Energy != 42 {
		t.Fatalf("stub energy %g, want 42", out.Energy)
	}
}

// gate parks the dispatch of a sacrificial head request until the test
// has queued the requests it wants coalesced, so they form the next batch
// by construction rather than by timing. The gate answers the head
// itself; every other batch reaches the wrapped evaluator.
type gate struct {
	BatchEvaluator
	head   core.Result // the head's output buffer, which marks its batch
	parked chan struct{}
	open   chan struct{}
	heads  uint64 // heads dispatched so far
}

func newGate(eng BatchEvaluator) *gate {
	return &gate{BatchEvaluator: eng, parked: make(chan struct{}), open: make(chan struct{})}
}

func (g *gate) ComputeBatch(frames []core.Frame) error {
	if len(frames) == 1 && frames[0].Out == &g.head {
		g.parked <- struct{}{}
		<-g.open
		return nil
	}
	return g.BatchEvaluator.ComputeBatch(frames)
}

// coalesce parks b's only dispatcher on a head, runs submit, waits until
// the n requests it submits are queued, then opens the gate: the next
// batch carries min(n, MaxBatch) of them.
func (g *gate) coalesce(t *testing.T, b *Batcher, n int, submit func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- b.Evaluate(context.Background(), nil, nil, 0, nil, nil, &g.head) }()
	<-g.parked
	submit()
	waitQueueDepth(t, b, n)
	g.open <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("gate head: %v", err)
	}
	g.heads++
}

// withoutHeads removes the heads' single-frame batches from a snapshot.
func (g *gate) withoutHeads(st Stats) Stats {
	st.Accepted -= g.heads
	st.Completed -= g.heads
	st.Batches -= g.heads
	st.Frames -= g.heads
	return st
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
