package core

import (
	"math/rand"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/nn"
)

// Model is a Deep Potential model: double-precision master weights for the
// per-(center type, neighbor type) embedding nets and per-type fitting
// nets. Evaluators derived from a Model share (double) or copy (mixed,
// converted to float32) these weights.
type Model struct {
	Cfg Config
	// Embed[ci][tj] maps s(r) of a type-tj neighbor of a type-ci center
	// to its embedding row.
	Embed [][]*nn.Net[float64]
	// Fit[ci] maps the flattened descriptor of a type-ci atom to its
	// atomic energy contribution E_i.
	Fit []*nn.Net[float64]
	// Compressed, when non-nil, holds the tabulated embedding nets
	// (AttachCompressedTables); it is serialized with the checkpoint so a
	// compressed model round-trips, and evaluators prefer it over
	// re-fitting in SetCompressedEmbedding. Indexed like Embed.
	Compressed [][]*compress.Table[float64]
}

// New constructs a model with freshly initialized weights.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nt := cfg.NumTypes()
	m := &Model{
		Cfg:   cfg,
		Embed: make([][]*nn.Net[float64], nt),
		Fit:   make([]*nn.Net[float64], nt),
	}
	for ci := 0; ci < nt; ci++ {
		m.Embed[ci] = make([]*nn.Net[float64], nt)
		for tj := 0; tj < nt; tj++ {
			m.Embed[ci][tj] = nn.NewEmbeddingNet[float64](rng, cfg.EmbedWidths)
		}
		bias := 0.0
		if cfg.AtomEnerBias != nil {
			bias = cfg.AtomEnerBias[ci]
		}
		m.Fit[ci] = nn.NewFittingNet[float64](rng, cfg.DescriptorDim(), cfg.FitWidths, bias)
	}
	return m, nil
}

// NumParams returns the total trainable parameter count.
func (m *Model) NumParams() int {
	total := 0
	for _, row := range m.Embed {
		for _, n := range row {
			total += n.NumParams()
		}
	}
	for _, n := range m.Fit {
		total += n.NumParams()
	}
	return total
}

// Nets returns all networks in a deterministic order (embedding nets
// row-major, then fitting nets); used by the trainer to walk parameters.
func (m *Model) Nets() []*nn.Net[float64] {
	var nets []*nn.Net[float64]
	for _, row := range m.Embed {
		nets = append(nets, row...)
	}
	nets = append(nets, m.Fit...)
	return nets
}
