// Package serve is the cross-request micro-batcher of the serving path:
// it coalesces concurrent small evaluate requests into one batch-of-frames
// evaluation (core.Engine.ComputeBatch), the operator-level batching of
// the 86-PFLOPS successor (arXiv:2004.11658) applied across callers. Each
// frame keeps its own chunk jobs and GEMM shapes, so a batch shares the
// evaluator's workers, not FLOPs: batching pays only when requests are
// already queued. The serve_http_closed2 workload of `go run ./bench`
// measures it.
//
// The batcher is a bounded queue in front of a set of dispatcher loops.
// Each dispatcher takes the oldest pending request plus whatever is
// already queued behind it (up to the batch cap) and evaluates the batch
// in one engine call at once: no frame waits while an evaluator is idle,
// and requests that queue behind busy dispatchers form the next batches.
// Requests carry a context: a caller whose deadline expires before its
// frame is claimed gets the context error and its slot is dropped from
// the batch.
// Backpressure is explicit — a full queue rejects immediately with
// ErrQueueFull (HTTP 429 in cmd/dpserve) instead of absorbing unbounded
// latency. Close drains: queued requests complete, new ones are refused.
//
// Coalescing never changes the physics: batched-across-callers results
// are bit-identical to serial per-request evaluation at every coalesce
// size (core.Engine.ComputeBatch's contract, verified in-test the same
// way core.TestEngineConcurrentBitIdentical checks the pool). Nor does it
// change who fails: when a coalesced batch returns an error its frames
// are re-evaluated alone, and only the offending request sees it.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"deepmd-go/internal/core"
	"deepmd-go/internal/neighbor"
)

// BatchEvaluator is the seam the batcher dispatches through; implemented
// by core.Engine. Tests substitute stubs to pin queueing semantics
// without evaluation cost.
type BatchEvaluator interface {
	// ComputeBatch must be allocation-free in the steady state: the
	// //dp:noalloc dispatch loop calls it once per batch, and serving
	// throughput depends on dispatches staying off the heap.
	//
	//dp:noalloc
	ComputeBatch(frames []core.Frame) error
}

var (
	// ErrQueueFull reports a request rejected by backpressure: the
	// pending queue is at QueueLimit. Serving layers map it to 429.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed reports a request after Close began draining.
	ErrClosed = errors.New("serve: batcher closed")
)

// Options tunes the batcher. The zero value asks for defaults.
type Options struct {
	// MaxBatch caps frames per dispatch (default 8). 1 disables
	// coalescing — every request evaluates alone, the pool-only baseline.
	MaxBatch int
	// QueueLimit bounds pending requests; beyond it Submit rejects with
	// ErrQueueFull (default 4*MaxBatch).
	QueueLimit int
	// Dispatchers is the number of concurrent dispatch loops, each
	// borrowing one pooled evaluator per batch (default: the engine's
	// MaxConcurrency when the evaluator reports one, else 1).
	Dispatchers int
}

// concurrencyHinter lets Options default Dispatchers from the engine's
// evaluator-pool bound.
type concurrencyHinter interface {
	MaxConcurrency() int
}

// withDefaults resolves zero fields.
func (o Options) withDefaults(eng BatchEvaluator) Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 4 * o.MaxBatch
	}
	if o.Dispatchers <= 0 {
		if h, ok := eng.(concurrencyHinter); ok {
			o.Dispatchers = h.MaxConcurrency()
		} else {
			o.Dispatchers = 1
		}
	}
	return o
}

// claim states of a request. A request is computed exactly when a
// dispatcher wins the pending→dispatched transition; a caller whose
// context expires first wins pending→abandoned instead, and its frame is
// dropped before evaluation.
const (
	claimPending int32 = iota
	claimDispatched
	claimAbandoned
)

type request struct {
	pos     []float64
	types   []int
	nloc    int
	list    *neighbor.List
	box     *neighbor.Box
	out     *core.Result
	claimed atomic.Int32
	done    chan error
}

// Stats is a point-in-time snapshot of the batcher's counters — the
// /metrics surface of cmd/dpserve.
type Stats struct {
	// Accepted counts requests admitted to the queue; Rejected the ones
	// refused by backpressure; Expired the ones whose context ended
	// before dispatch; Completed the ones evaluated and answered.
	Accepted, Rejected, Expired, Completed uint64
	// Batches and Frames count dispatches and the frames they carried;
	// Frames/Batches is the realized coalesce factor.
	Batches, Frames uint64
	// MaxBatch is the largest batch dispatched so far.
	MaxBatch uint64
	// QueueDepth is the current number of queued requests.
	QueueDepth int
}

// Batcher coalesces concurrent evaluate requests into batched engine
// calls. All methods are goroutine-safe.
type Batcher struct {
	eng BatchEvaluator
	opt Options

	mu     sync.RWMutex // guards closed vs queue sends
	closed bool
	queue  chan *request
	wg     sync.WaitGroup

	accepted, rejected, expired, completed atomic.Uint64
	batches, frames, maxBatch              atomic.Uint64
}

// New starts a batcher over the engine with opt's dispatch policy.
func New(eng BatchEvaluator, opt Options) *Batcher {
	opt = opt.withDefaults(eng)
	b := &Batcher{
		eng:   eng,
		opt:   opt,
		queue: make(chan *request, opt.QueueLimit),
	}
	for i := 0; i < opt.Dispatchers; i++ {
		b.wg.Add(1)
		go b.dispatch()
	}
	return b
}

// Options reports the resolved dispatch policy.
func (b *Batcher) Options() Options { return b.opt }

// Evaluate submits one frame and blocks until it is evaluated, the
// context ends, or backpressure rejects it. Results land in out, reusing
// its buffers when adequately sized; they are bit-identical to a direct
// serial engine evaluation regardless of which requests the frame
// coalesced with.
func (b *Batcher) Evaluate(ctx context.Context, pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	r := &request{pos: pos, types: types, nloc: nloc, list: list, box: box, out: out, done: make(chan error, 1)}
	// The read lock orders the send against Close's channel close: Close
	// flips closed under the write lock before closing the queue, so no
	// send can race the close.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	select {
	case b.queue <- r:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.rejected.Add(1)
		return ErrQueueFull
	}
	b.accepted.Add(1)

	select {
	case err := <-r.done:
		return err
	case <-ctx.Done():
		if r.claimed.CompareAndSwap(claimPending, claimAbandoned) {
			b.expired.Add(1)
			return ctx.Err()
		}
		// A dispatcher claimed the frame first; the evaluation is already
		// on an evaluator and completes within one batch. Return its
		// result — out is being written, so the caller must not bail out.
		return <-r.done
	}
}

// Compute is Evaluate without a deadline, satisfying the md.Potential /
// core computer seam: simulations and relaxations driven through the
// batcher coalesce their force calls with everyone else's.
func (b *Batcher) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	return b.Evaluate(context.Background(), pos, types, nloc, list, box, out)
}

// Close stops admissions and drains: queued requests are evaluated and
// answered, dispatchers exit, then Close returns. The context bounds the
// drain; on expiry the batcher keeps draining in the background but Close
// returns the context error. Close is idempotent.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.queue)
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the counters.
func (b *Batcher) Stats() Stats {
	return Stats{
		Accepted:   b.accepted.Load(),
		Rejected:   b.rejected.Load(),
		Expired:    b.expired.Load(),
		Completed:  b.completed.Load(),
		Batches:    b.batches.Load(),
		Frames:     b.frames.Load(),
		MaxBatch:   b.maxBatch.Load(),
		QueueDepth: len(b.queue),
	}
}

// dispatch is one dispatcher loop: batch head + whatever is queued →
// claim → one engine call → per-request delivery. A coalesced batch that
// fails is taken apart and its frames evaluated one at a time, so a
// request is only ever answered with an error of its own frame.
//
// The loop body is allocation-free: the batch and frame slices are
// created once here and reused for every batch, so a saturated server's
// dispatch path produces no garbage.
//
//dp:noalloc
func (b *Batcher) dispatch() {
	defer b.wg.Done()
	//dp:allow noalloc one-time dispatcher setup; the slice is reused for every batch
	batch := make([]*request, 0, b.opt.MaxBatch)
	//dp:allow noalloc one-time dispatcher setup; the slice is reused for every batch
	frames := make([]core.Frame, 0, b.opt.MaxBatch)
	for head := range b.queue {
		batch = append(batch[:0], head)
		b.collect(&batch)

		// Claim phase: frames whose caller already abandoned (deadline)
		// are dropped before the evaluation, not after.
		frames = frames[:0]
		live := batch[:0]
		for _, r := range batch {
			if r.claimed.CompareAndSwap(claimPending, claimDispatched) {
				frames = append(frames, core.Frame{Pos: r.pos, Types: r.types, Nloc: r.nloc, List: r.list, Box: r.box, Out: r.out})
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			continue
		}

		err := b.eng.ComputeBatch(frames)
		b.batches.Add(1)
		b.frames.Add(uint64(len(live)))
		for {
			prev := b.maxBatch.Load()
			if uint64(len(live)) <= prev || b.maxBatch.CompareAndSwap(prev, uint64(len(live))) {
				break
			}
		}
		// Count before waking the caller, so a caller that reads Stats
		// right after its Evaluate returns sees itself completed.
		b.completed.Add(uint64(len(live)))
		if err != nil && len(live) > 1 {
			// A failing frame fails alone: the batch's error belongs to one
			// caller's input (a non-finite distance, a type outside the
			// model), and its neighbours' frames are good. Each frame is
			// evaluated again as its own batch and answered with its own
			// result or error.
			for i, r := range live {
				r.done <- b.eng.ComputeBatch(frames[i : i+1])
			}
			continue
		}
		for _, r := range live {
			r.done <- err
		}
	}
}

// collect grows the batch with everything already queued, up to
// MaxBatch. It never waits: the dispatcher computes what it holds at once.
func (b *Batcher) collect(batch *[]*request) {
	for len(*batch) < b.opt.MaxBatch {
		select {
		case r, ok := <-b.queue:
			if !ok {
				return
			}
			*batch = append(*batch, r)
		default:
			return
		}
	}
}
