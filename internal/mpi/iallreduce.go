package mpi

// Request is the completion handle of an Iallreduce.
type Request struct {
	done    chan struct{}
	sum     []float64
	failure any // the panic that ended the reduction (an abort), or nil
}

// Wait blocks until the reduction completes and returns the summed
// values, which the caller owns. If the world aborted first, Wait panics
// with the abort error.
func (r *Request) Wait() []float64 {
	<-r.done
	if r.failure != nil {
		panic(r.failure)
	}
	return r.sum
}

// Done reports whether the reduction has completed without blocking.
func (r *Request) Done() bool {
	select {
	case <-r.done:
		return r.failure == nil
	default:
		return false
	}
}

// Iallreduce is the non-blocking all-reduce of Sec. 5.4: "we replace the
// MPI_Allreduce with MPI_Iallreduce to further avoid the implicit
// MPI_Barrier". Every rank ships its contribution to rank 0 at once and
// returns a Request; a background goroutine on rank 0 sums in rank order
// 0..p-1 (bit-identical to Allreduce) and sends every other rank its own
// copy of the result, which a background goroutine there receives. Ranks
// keep integrating while the reduction progresses; no rank blocks before
// Wait.
//
// Operations are matched by call order per rank: the k-th Iallreduce on
// one rank matches the k-th on every other rank (the usual MPI ordering
// contract for non-blocking collectives on a communicator). The traffic
// rides the system matchers, so it never disturbs application tags.
func (c *Comm) Iallreduce(values []float64) *Request {
	tag := sysTagIar + c.iarSeq
	c.iarSeq++
	r := &Request{done: make(chan struct{}), sum: append([]float64(nil), values...)}
	if c.size == 1 {
		close(r.done)
		return r
	}
	if c.rank != 0 {
		c.Send(0, tag, r.sum)
	}
	go func() {
		defer close(r.done)
		defer func() { r.failure = recover() }()
		if c.rank != 0 {
			r.sum = c.Recv(0, tag).([]float64)
			return
		}
		for src := 1; src < c.size; src++ {
			v := c.Recv(src, tag).([]float64)
			for i := range r.sum {
				r.sum[i] += v[i]
			}
		}
		for dst := 1; dst < c.size; dst++ {
			c.Send(dst, tag, append([]float64(nil), r.sum...))
		}
	}()
	return r
}
