package core

import (
	"fmt"

	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/nn"
)

// ModelGrads accumulates dE/dtheta for every network of a model. The
// energy gradient is what the trainer needs (internal/train); it falls out
// of the same backward passes the force evaluation already performs, with
// parameter accumulation switched on.
type ModelGrads struct {
	Embed [][]*nn.Grads[float64]
	Fit   []*nn.Grads[float64]
}

// NewModelGrads allocates zeroed gradients matching m.
func NewModelGrads(m *Model) *ModelGrads {
	g := &ModelGrads{
		Embed: make([][]*nn.Grads[float64], len(m.Embed)),
		Fit:   make([]*nn.Grads[float64], len(m.Fit)),
	}
	for ci, row := range m.Embed {
		g.Embed[ci] = make([]*nn.Grads[float64], len(row))
		for tj, net := range row {
			g.Embed[ci][tj] = nn.NewGrads(net)
		}
	}
	for ci, net := range m.Fit {
		g.Fit[ci] = nn.NewGrads(net)
	}
	return g
}

// Zero clears all gradients.
func (g *ModelGrads) Zero() {
	for _, row := range g.Embed {
		for _, gr := range row {
			gr.Zero()
		}
	}
	for _, gr := range g.Fit {
		gr.Zero()
	}
}

// ComputeWithGrads evaluates energy/forces like Compute and additionally
// accumulates dE/dtheta into grads (scaled by 1, i.e. the raw energy
// gradient; the trainer chain-rules its loss factor on top). Only the
// double-precision evaluator supports this. The gradients of every chunk
// accumulate into the one grads, so the chunk sweep runs serially and the
// evaluator's whole worker budget goes to the row blocks inside each GEMM
// (splitBudget) — every output element is written by exactly one
// goroutine, so results are bit-identical at any Workers. The Environment
// and force/virial stages around the sweep run on the whole team as in any
// other call.
func (ev *Evaluator[T]) ComputeWithGrads(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *Result, grads *ModelGrads) error {
	if _, ok := any(ev).(*Evaluator[float64]); !ok {
		return fmt.Errorf("core: parameter gradients require the double-precision evaluator")
	}
	if ev.strat == StrategyCompressed {
		// The tabulated embedding has no weights in the graph; training
		// runs on the exact nets and re-tabulates afterwards. The wrap
		// keeps the sentinel visible to errors.Is through the context.
		return fmt.Errorf("%w (train on the exact nets and re-tabulate)", ErrNoGradsForCompressed)
	}
	ev.grads = grads
	defer func() { ev.grads = nil }()
	return ev.Compute(pos, types, nloc, list, box, out)
}

// gradsFor returns the typed gradient accumulators for evalChunk, or nils
// when gradients are not requested.
func (ev *Evaluator[T]) gradsFor(ci, tj int) (embed, fit *nn.Grads[T]) {
	if ev.grads == nil {
		return nil, nil
	}
	e, _ := any(ev.grads.Embed[ci][tj]).(*nn.Grads[T])
	f, _ := any(ev.grads.Fit[ci]).(*nn.Grads[T])
	return e, f
}
