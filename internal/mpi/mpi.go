// Package mpi is the message-passing runtime under the domain
// decomposition. There is one Comm implementation: every rank owns a
// per-source tag matcher, and Recv, Irecv, the collectives and the abort
// path are written once against it. Two transports differ only in how a
// sent message reaches the receiver's matcher:
//
//   - The in-process world (NewWorld): ranks are goroutines and Send
//     pushes the payload, by reference, straight into the destination
//     rank's matcher. This is the default, the fast path for
//     simulated-rank experiments, and the differential oracle the TCP
//     transport is held bit-identical to.
//   - The TCP world (DialTCP): ranks are processes — on one machine or
//     many — meshed over TCP streams with length-prefixed binary framing
//     (see codec.go) and a small rendezvous layer (coordinator or static
//     host list). A reader goroutine per connection decodes frames into
//     the same matcher. This is the substitution for IBM Spectrum MPI on
//     Summit with real wire costs.
//
// The collective operations the paper relies on (Bcast for model staging,
// Barrier, Allreduce and Iallreduce for thermodynamic output, Sec. 5.4 and
// 7.3) are point-to-point sends through rank 0 with rank-ordered
// reduction, so results are bit-identical across transports and runs, and
// so are the message and byte counters. Send never waits for the
// receiver and Irecv returns a lightweight handle: together they carry
// the asynchronous staged halo exchange (comm/compute overlap, Sec. 7.2).
// Counters are kept per communicator and per world — sized exactly via
// the wire codec — so benchmarks can report communication volume the way
// the paper discusses ghost-region traffic.
package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Reserved tag spaces for transport-internal collectives, far above the
// application tags the domain layer uses.
const (
	sysTagBarrier = 1 << 24
	sysTagIar     = 1 << 25
)

// message is one point-to-point payload.
type message struct {
	tag     int
	payload any
}

// link is how a sent message reaches the receiver's matcher: the
// in-process World pushes it there directly, a TCPWorld frames it onto a
// socket (or pushes a copy, for a send to itself).
type link interface {
	deliver(src, dst, tag int, payload any, n int64)
	fail(cause error)
}

// abortState is the failure state both worlds share. The first cause
// wins; closing done unblocks every pending receive, which then panics
// with the abort error.
type abortState struct {
	done chan struct{}
	err  atomic.Pointer[abortError]
}

// trip records cause and closes done; it reports whether this call was
// the first failure.
func (a *abortState) trip(cause error) bool {
	if !a.err.CompareAndSwap(nil, &abortError{cause: cause}) {
		return false
	}
	close(a.done)
	return true
}

// abortError is the one panic value of an aborted world; it satisfies
// error so the domain layer's recover path surfaces the cause.
type abortError struct{ cause error }

func (e *abortError) Error() string { return "mpi: world aborted: " + e.cause.Error() }
func (e *abortError) Unwrap() error { return e.cause }

// World is a set of in-process ranks: one Comm per rank, sharing one
// abort state.
type World struct {
	abortState
	comms []Comm
}

// NewWorld creates a world of p ranks.
func NewWorld(p int) *World {
	if p < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{abortState: abortState{done: make(chan struct{})}, comms: make([]Comm, p)}
	for r := range w.comms {
		w.comms[r].init(r, p, w, &w.abortState)
	}
	return w
}

func (w *World) deliver(src, dst, tag int, payload any, _ int64) {
	w.comms[dst].inbox(src, tag).push(message{tag: tag, payload: payload})
}

func (w *World) fail(cause error) { w.trip(cause) }

// Abort unblocks all pending operations; they panic with the abort error.
func (w *World) Abort() { w.fail(errors.New("aborted by application")) }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.comms) }

// Messages returns the number of point-to-point messages sent so far.
func (w *World) Messages() int64 {
	var n int64
	for r := range w.comms {
		n += w.comms[r].SentMessages()
	}
	return n
}

// Bytes returns the exact payload bytes sent so far (wire-codec sizes,
// excluding the per-message frame header a wire transport adds).
func (w *World) Bytes() int64 {
	var n int64
	for r := range w.comms {
		n += w.comms[r].SentBytes()
	}
	return n
}

// Run executes f on every rank concurrently and waits for all to finish.
// A panic on any rank aborts the world (unblocking everyone else) and is
// re-raised on the caller as an error wrapping the rank's own (%w when it
// panicked with an error); the abort-induced panics of the other ranks
// are filtered out by type. If every panic was an abort (a protocol
// error, or Abort), the abort error itself is re-raised.
func (w *World) Run(f func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, len(w.comms))
	for r := range w.comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[c.rank] = p
					w.fail(fmt.Errorf("rank %d panicked: %v", c.rank, p))
				}
			}()
			f(c)
		}(&w.comms[r])
	}
	wg.Wait()
	aborted := false
	for r, p := range panics {
		if _, ok := p.(*abortError); ok || p == nil {
			aborted = aborted || ok
			continue
		}
		err, ok := p.(error)
		if !ok {
			err = fmt.Errorf("%v", p)
		}
		panic(fmt.Errorf("mpi: rank %d panicked: %w", r, err))
	}
	if aborted {
		panic(w.err.Load())
	}
}

// Comm is one rank's endpoint on either transport.
type Comm struct {
	rank, size int
	link       link
	ab         *abortState

	// match[src] orders src's application messages; sysMatch[src] carries
	// the transport-internal collective traffic (barrier, iallreduce;
	// tags >= sysTagBarrier) out of band, so it never occupies the
	// strictly ordered application queue a Recv head-checks.
	match, sysMatch []matcher

	iarSeq int

	// Per-rank sent-traffic counters (the world-level counters aggregate
	// all ranks in-process but only this process over TCP; per-rank
	// counters let the domain layer reduce exact totals on any transport).
	msgs  atomic.Int64
	bytes atomic.Int64
}

func (c *Comm) init(rank, size int, l link, ab *abortState) {
	c.rank, c.size, c.link, c.ab = rank, size, l, ab
	c.match, c.sysMatch = make([]matcher, size), make([]matcher, size)
	for i := range c.sysMatch {
		c.sysMatch[i].relaxed = true
	}
}

// inbox returns the matcher a message from src with tag lands in.
func (c *Comm) inbox(src, tag int) *matcher {
	if tag >= sysTagBarrier {
		return &c.sysMatch[src]
	}
	return &c.match[src]
}

// fail aborts the world with cause and panics with the abort error.
func (c *Comm) fail(cause error) {
	c.link.fail(cause)
	panic(c.ab.err.Load())
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// SentMessages returns the number of messages this rank has sent.
func (c *Comm) SentMessages() int64 { return c.msgs.Load() }

// SentBytes returns the exact payload bytes this rank has sent.
func (c *Comm) SentBytes() int64 { return c.bytes.Load() }

// Send delivers payload — a []float64, []int64 or []byte — to dst with a
// tag and never waits for the receiver. In-process the payload crosses by
// reference: the receiver must consume (copy out of) it before the sender
// reuses the backing buffer. Over TCP the payload is encoded immediately,
// so the buffer is reusable on return.
func (c *Comm) Send(dst, tag int, payload any) {
	_, n := payloadKind(payload)
	c.msgs.Add(1)
	c.bytes.Add(int64(n))
	c.link.deliver(c.rank, dst, tag, payload, int64(n))
}

// Recv blocks until a message with the given tag arrives from src.
// Messages from the same source are delivered in order; a Recv whose tag
// differs from its source's next unclaimed message is a protocol error
// and aborts the world.
func (c *Comm) Recv(src, tag int) any { return c.collect(c.post(src, tag, true)) }

// RecvHandle is the completion handle of a non-blocking receive posted
// with Irecv. It is a value type and its token is recycled by Wait, so
// the steady-state exchange path stays allocation-free; Wait it exactly
// once.
type RecvHandle struct {
	c   *Comm
	tok *recvToken
}

// Irecv posts a non-blocking receive for (src, tag); Wait blocks only for
// delivery. Posting eagerly tells the matcher which arrivals are
// expected, so concurrent receives on different tags never trip the
// protocol-error check.
func (c *Comm) Irecv(src, tag int) RecvHandle {
	return RecvHandle{c: c, tok: c.post(src, tag, false)}
}

// Wait blocks until the posted receive completes and returns the payload.
func (h RecvHandle) Wait() any { return h.c.collect(h.tok) }

// post registers interest in (src, tag) with src's matcher.
func (c *Comm) post(src, tag int, block bool) *recvToken {
	tok, err := c.inbox(src, tag).post(tag, block)
	if err != nil {
		c.fail(fmt.Errorf("rank %d recv from rank %d: %w", c.rank, src, err))
	}
	return tok
}

// collect blocks until a posted receive completes, recycles its token and
// returns the payload.
func (c *Comm) collect(tok *recvToken) any {
	if !tok.ready {
		select {
		case <-tok.ch:
		case <-c.ab.done:
			panic(c.ab.err.Load())
		}
	}
	v, err := tok.got, tok.err
	tok.m.recycle(tok)
	if err != nil {
		c.fail(fmt.Errorf("rank %d: %w", c.rank, err))
	}
	return v
}

// Barrier blocks until every rank has entered it: a gather+release
// through rank 0, counted like any other messages.
func (c *Comm) Barrier() {
	if c.rank == 0 {
		for src := 1; src < c.size; src++ {
			c.Recv(src, sysTagBarrier)
		}
		for dst := 1; dst < c.size; dst++ {
			c.Send(dst, sysTagBarrier, []byte(nil))
		}
		return
	}
	c.Send(0, sysTagBarrier, []byte(nil))
	c.Recv(0, sysTagBarrier)
}

// Bcast distributes root's payload to all ranks. This is the
// model-staging pattern of Sec. 7.3 ("first reading in with a single MPI
// rank, and then broadcasting across all MPI tasks"). Every recipient is
// sent its own copy — wire value semantics on both transports — so
// mutating the returned payload on one rank cannot corrupt another.
func (c *Comm) Bcast(root, tag int, payload any) any {
	if c.rank != root {
		return c.Recv(root, tag)
	}
	for dst := 0; dst < c.size; dst++ {
		if dst != root {
			c.Send(dst, tag, clonePayload(payload))
		}
	}
	return payload
}

// Allreduce sums slices element-wise across all ranks; every rank returns
// its own copy of the reduced vector. The reduction is rank-ordered
// (root's contribution first, then ranks 1..p-1), so the floating-point
// result is deterministic and bit-identical across transports. The
// implicit synchronization this carries is the bottleneck Sec. 5.4 works
// around by reducing output frequency.
func (c *Comm) Allreduce(tag int, values []float64) []float64 {
	if c.rank != 0 {
		c.Send(0, tag, values)
		return c.Recv(0, tag).([]float64)
	}
	sum := append([]float64(nil), values...)
	for src := 1; src < c.size; src++ {
		v := c.Recv(src, tag).([]float64)
		for i := range sum {
			sum[i] += v[i]
		}
	}
	for dst := 1; dst < c.size; dst++ {
		c.Send(dst, tag, append([]float64(nil), sum...))
	}
	return sum
}

// matcher routes one source's arrived messages to receivers by tag, in
// per-source arrival order: a receive posted for the next unclaimed
// message's tag takes it; a blocking Recv whose tag differs from it is a
// protocol error, whether the message arrived before the Recv was posted
// or while it waited.
type matcher struct {
	mu      sync.Mutex
	fifo    []message
	waiting []*recvToken
	free    []*recvToken
	closed  bool
	// relaxed switches to full (src, tag) matching with no order check:
	// used for the system matcher, whose senders (e.g. the rank-0
	// iallreduce collector goroutine) are concurrent with the main rank,
	// so arrival order carries no protocol meaning.
	relaxed bool
}

// recvToken is one posted receive, recycled through its matcher.
type recvToken struct {
	m     *matcher
	tag   int
	block bool          // posted by a blocking Recv
	ready bool          // completed at post time
	ch    chan struct{} // signalled once got or err is set
	got   any
	err   error
}

// push routes an arrived message: to the first waiting receiver for its
// tag, else onto the arrival queue. On a strict matcher an unclaimed
// arrival while a blocking Recv waits is that Recv's protocol error: its
// rank is blocked, so nothing else can claim the message first. The
// signals never block under the lock: a token is signalled once per post.
func (m *matcher) push(msg message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, tok := range m.waiting {
		if tok.tag == msg.tag {
			m.waiting = slices.Delete(m.waiting, i, i+1)
			tok.got = msg.payload
			tok.ch <- struct{}{}
			return
		}
	}
	for i, tok := range m.waiting {
		if tok.block && !m.relaxed {
			m.waiting = slices.Delete(m.waiting, i, i+1)
			tok.err = fmt.Errorf("protocol error: expected tag %d, got tag %d", tok.tag, msg.tag)
			tok.ch <- struct{}{}
			break
		}
	}
	m.fifo = append(m.fifo, msg)
}

// post registers a receiver for tag. An already-arrived message with the
// tag completes immediately; a strict matcher only looks at the head of
// the queue, and a head with a different tag (which, by construction, no
// current receiver wants) is a protocol error.
func (m *matcher) post(tag int, block bool) (*recvToken, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, msg := range m.fifo {
		if msg.tag == tag {
			m.fifo = slices.Delete(m.fifo, i, i+1)
			tok := m.token(tag, block)
			tok.ready, tok.got = true, msg.payload
			return tok, nil
		}
		if !m.relaxed {
			return nil, fmt.Errorf("protocol error: expected tag %d, head of queue has tag %d", tag, msg.tag)
		}
	}
	if m.closed {
		return nil, errors.New("peer closed the connection")
	}
	tok := m.token(tag, block)
	m.waiting = append(m.waiting, tok)
	return tok, nil
}

// token takes a recycled token (or makes one); m.mu is held.
func (m *matcher) token(tag int, block bool) *recvToken {
	var tok *recvToken
	if n := len(m.free); n > 0 {
		tok, m.free = m.free[n-1], m.free[:n-1]
	} else {
		tok = &recvToken{m: m, ch: make(chan struct{}, 1)}
	}
	tok.tag, tok.block = tag, block
	return tok
}

func (m *matcher) recycle(tok *recvToken) {
	m.mu.Lock()
	tok.ready, tok.got, tok.err = false, nil, nil
	m.free = append(m.free, tok)
	m.mu.Unlock()
}

// closePeer marks the source cleanly finished; receives already posted
// keep waiting (the world-level abort unblocks them if the peer really is
// gone), new posts with nothing queued fail.
func (m *matcher) closePeer() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}
