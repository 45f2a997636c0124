// Package serve is the bounded request queue in front of an engine's
// evaluator pool, the serving path of cmd/dpserve. Every request is one
// frame, and every force call evaluates one request: the batching that
// pays is inside a frame (its chunk sweep), and across callers a batch
// would share an evaluator's workers, not its FLOPs. The
// serve_http_closed2 workload of `go run ./bench` measures the path.
//
// The queue is drained by one dispatcher loop per slot of the engine's
// evaluator pool (core.Engine.MaxConcurrency), the one concurrency bound
// of the serving path: no request waits while an evaluator is idle, and
// each dispatcher evaluates exactly the request it dequeued.
// Requests carry a context: a caller whose deadline expires before its
// request is dequeued gets the context error and the request is dropped.
// Backpressure is explicit — a full queue rejects immediately with
// ErrQueueFull (HTTP 429 in cmd/dpserve) instead of absorbing unbounded
// latency. Close drains: queued requests complete, new ones are refused.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"deepmd-go/internal/core"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
)

var (
	// ErrQueueFull reports a request rejected by backpressure: the
	// pending queue is at QueueLimit. Serving layers map it to 429.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed reports a request after Close began draining.
	ErrClosed = errors.New("serve: batcher closed")
)

// DefaultQueueLimit is the pending-request bound a zero QueueLimit asks
// for.
const DefaultQueueLimit = 32

// Options tunes the batcher. The zero value asks for defaults.
type Options struct {
	// QueueLimit bounds pending requests; beyond it Evaluate rejects with
	// ErrQueueFull (default DefaultQueueLimit).
	QueueLimit int
}

// concurrencyHinter reports the engine's evaluator-pool bound: New runs
// one dispatch loop per pool slot, so every pooled evaluator can serve a
// request at once and no request waits for a loop.
type concurrencyHinter interface {
	MaxConcurrency() int
}

// claim states of a request. A request is computed exactly when a
// dispatcher wins the pending→dispatched transition; a caller whose
// context expires first wins pending→abandoned instead, and its request is
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
	// QueueDepth is the current number of queued requests.
	QueueDepth int
}

// Batcher is the bounded queue in front of an engine's evaluator pool.
// All methods are goroutine-safe.
type Batcher struct {
	eng md.Potential
	opt Options

	mu     sync.RWMutex // guards closed vs queue sends
	closed bool
	queue  chan *request
	wg     sync.WaitGroup

	accepted, rejected, expired, completed atomic.Uint64
}

// New starts a batcher over the engine with opt's queue bound. The engine
// is called from one dispatcher per slot its MaxConcurrency reports (one
// when it reports none), so an engine that reports more than one must be
// goroutine-safe, as core.Engine is.
func New(eng md.Potential, opt Options) *Batcher {
	if opt.QueueLimit <= 0 {
		opt.QueueLimit = DefaultQueueLimit
	}
	b := &Batcher{
		eng:   eng,
		opt:   opt,
		queue: make(chan *request, opt.QueueLimit),
	}
	loops := 1 // an evaluator that reports no pool bound
	if h, ok := eng.(concurrencyHinter); ok {
		loops = h.MaxConcurrency()
	}
	for range loops {
		b.wg.Add(1)
		go b.dispatch()
	}
	return b
}

// Options reports the resolved queue bound.
func (b *Batcher) Options() Options { return b.opt }

// Evaluate submits one frame and blocks until it is evaluated, the
// context ends, or backpressure rejects it. Results land in out, reusing
// its buffers when adequately sized; they are bit-identical to a direct
// engine evaluation.
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
		// A dispatcher claimed the request first; the evaluation is already
		// on an evaluator and completes within one force call. Return its
		// result — out is being written, so the caller must not bail out.
		return <-r.done
	}
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
		QueueDepth: len(b.queue),
	}
}

// dispatch is one dispatcher loop: dequeue → claim → one engine call →
// delivery to the request's caller, who alone sees its result or error.
// The loop body is allocation-free, so a saturated server's dispatch path
// produces no garbage.
//
//dp:noalloc
func (b *Batcher) dispatch() {
	defer b.wg.Done()
	for r := range b.queue {
		// A request whose caller already abandoned it (deadline) is
		// dropped before the evaluation, not after.
		if !r.claimed.CompareAndSwap(claimPending, claimDispatched) {
			continue
		}
		err := b.eng.Compute(r.pos, r.types, r.nloc, r.list, r.box, r.out)
		// Count before waking the caller, so a caller that reads Stats
		// right after its Evaluate returns sees itself completed.
		b.completed.Add(1)
		r.done <- err
	}
}
