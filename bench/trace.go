package main

import (
	"sync"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one, -1 for a
// root; Lane is the rank or client that recorded it. Times are nanoseconds
// since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends; the traced pass
// writes them to bench/out/trace-<workload>.json. It is goroutine-safe
// (the two ranks of water_ranks2_tcp record concurrently) and, sized up
// front, allocation-free per span, so it does not show up in
// md.allocs_per_step.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, lane, parent, op int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// durations returns the length in ms of every span with the given name,
// in recording order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spanTime is one span's duration and self time in ms.
type spanTime struct {
	op          int
	total, self float64
}

// selfTimes returns, for every span with the given name, its duration and
// its self time: the duration minus the part its direct children cover.
// Children of one parent never overlap here (a step's force calls are
// sequential), so covered time is the plain sum.
func (r *recorder) selfTimes(name string) []spanTime {
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []spanTime
	for _, s := range r.spans {
		if s.Name == name {
			d := s.End - s.Start
			out = append(out, spanTime{op: s.Op, total: float64(d) / 1e6, self: float64(d-child[s.ID]) / 1e6})
		}
	}
	return out
}

// tracedPotential is the harness-owned timing wrapper around the
// md.Potential handed to md.NewSim / domain.RunOn: every force call becomes
// a core.compute span under the current operation's span. With on false it
// forwards untouched, which is what the interleaved tracing-overhead
// measurement compares against.
type tracedPotential struct {
	inner            md.Potential
	rec              *recorder
	on               bool
	lane, parent, op int
	// observe, when set, sees the arguments of every traced call (the
	// rank workload snapshots its ghost-extended positions through it).
	observe func(pos []float64, types []int, nloc int)
}

func (p *tracedPotential) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	if !p.on {
		return p.inner.Compute(pos, types, nloc, list, box, out)
	}
	if p.observe != nil {
		p.observe(pos, types, nloc)
	}
	id := p.rec.begin("core.compute", p.lane, p.parent, p.op)
	err := p.inner.Compute(pos, types, nloc, list, box, out)
	p.rec.end(id)
	return err
}
