// Package serve is the admission gate in front of an engine's evaluator
// pool, the serving path of cmd/dpserve. Every request is one frame, and
// every force call evaluates one request, on the caller's goroutine: the
// batching that pays is inside a frame (its chunk sweep), and across
// callers a batch would share an evaluator's workers, not its FLOPs. The
// serve_http_closed2 workload of `go run ./bench` measures the path.
//
// The gate has one slot per evaluator of the engine's pool
// (core.Engine.MaxConcurrency), the one concurrency bound of the serving
// path: a caller that finds a slot free computes at once, the others wait
// for one in arrival order, each under its context. Backpressure is
// explicit — with QueueLimit callers waiting, the next is rejected at once
// with ErrQueueFull (HTTP 429 in cmd/dpserve) instead of absorbing
// unbounded latency. Close drains: admitted calls complete, new ones are
// refused.
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
	// ErrQueueFull reports a request rejected by backpressure: QueueLimit
	// callers already wait for a slot. Serving layers map it to 429.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed reports a request after Close began draining.
	ErrClosed = errors.New("serve: batcher closed")
)

// DefaultQueueLimit is the pending-request bound a zero QueueLimit asks
// for.
const DefaultQueueLimit = 32

// Options tunes the batcher. The zero value asks for defaults.
type Options struct {
	// QueueLimit bounds the callers waiting for a slot; beyond it Evaluate
	// rejects with ErrQueueFull (default DefaultQueueLimit).
	QueueLimit int
}

// concurrencyHinter reports the engine's evaluator-pool bound, the
// number of slots New opens.
type concurrencyHinter interface {
	MaxConcurrency() int
}

// Stats is a point-in-time snapshot of the batcher's counters — the
// /metrics surface of cmd/dpserve.
type Stats struct {
	// Accepted counts requests admitted past the closed and queue checks;
	// Rejected the ones refused by backpressure; Expired the admitted ones
	// whose context ended before they held a slot; Completed the ones
	// evaluated and answered.
	Accepted, Rejected, Expired, Completed uint64
	// QueueDepth is the current number of callers waiting for a slot.
	QueueDepth int
}

// Batcher is the admission gate in front of an engine's evaluator pool.
// All methods are goroutine-safe.
type Batcher struct {
	eng   md.Potential
	opt   Options
	slots chan struct{} // one buffer place per evaluator: a send takes a slot

	mu     sync.RWMutex // orders admissions against Close's wait
	closed bool
	calls  sync.WaitGroup // admitted calls not yet returned

	waiting                                atomic.Int64
	accepted, rejected, expired, completed atomic.Uint64
}

// New opens a gate over the engine with opt's queue bound. The engine is
// called from up to as many goroutines at once as its MaxConcurrency
// reports (one when it reports none), so an engine that reports more than
// one must be goroutine-safe, as core.Engine is.
func New(eng md.Potential, opt Options) *Batcher {
	if opt.QueueLimit <= 0 {
		opt.QueueLimit = DefaultQueueLimit
	}
	slots := 1 // an evaluator that reports no pool bound
	if h, ok := eng.(concurrencyHinter); ok {
		slots = h.MaxConcurrency()
	}
	return &Batcher{eng: eng, opt: opt, slots: make(chan struct{}, slots)}
}

// Options reports the resolved queue bound.
func (b *Batcher) Options() Options { return b.opt }

// Evaluate evaluates one frame on the calling goroutine once an evaluator
// slot is free, unless the context ends first or backpressure rejects it.
// Results land in out, reusing its buffers when adequately sized; they are
// bit-identical to a direct engine evaluation.
func (b *Batcher) Evaluate(ctx context.Context, pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	// The read lock orders the admission against Close, which flips closed
	// under the write lock before it waits for every admitted call.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	b.calls.Add(1)
	b.mu.RUnlock()
	defer b.calls.Done()

	if err := b.acquire(ctx); err != nil {
		return err
	}
	defer func() { <-b.slots }() // released even if the engine panics
	err := b.eng.Compute(pos, types, nloc, list, box, out)
	b.completed.Add(1) // before returning: the caller's Stats see it
	return err
}

// acquire takes a slot: at once when one is free, else after the callers
// already waiting. A context that has ended is refused before it can take
// a free slot.
func (b *Batcher) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		b.accepted.Add(1)
		b.expired.Add(1)
		return err
	}
	select {
	case b.slots <- struct{}{}:
		b.accepted.Add(1)
		return nil
	default:
	}
	if b.waiting.Add(1) > int64(b.opt.QueueLimit) {
		b.waiting.Add(-1)
		b.rejected.Add(1)
		return ErrQueueFull
	}
	defer b.waiting.Add(-1)
	b.accepted.Add(1)
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		b.expired.Add(1)
		return ctx.Err()
	}
}

// Close stops admissions and drains: admitted calls complete, then Close
// returns. The context bounds the drain; on expiry the calls still
// complete, but Close returns the context error. Close is idempotent.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.calls.Wait()
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
		QueueDepth: int(b.waiting.Load()),
	}
}
