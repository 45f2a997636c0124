package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"deepmd-go/internal/tensor"
)

// Serialization always uses float64 on the wire: the model file is the
// double-precision truth, and the mixed-precision model is derived from it
// at load time with ConvertNet (Sec. 5.2.3).

type layerSpec struct {
	Kind    int
	In, Out int
	W, B    []float64
}

type netSpec struct {
	Layers []layerSpec
}

func specFromNet[T tensor.Float](n *Net[T]) netSpec {
	var spec netSpec
	for _, l := range n.Layers {
		ls := layerSpec{
			Kind: int(l.Kind),
			In:   l.In(),
			Out:  l.Out(),
			W:    make([]float64, len(l.W.Data)),
			B:    make([]float64, len(l.B)),
		}
		for i, v := range l.W.Data {
			ls.W[i] = float64(v)
		}
		for i, v := range l.B {
			ls.B[i] = float64(v)
		}
		spec.Layers = append(spec.Layers, ls)
	}
	return spec
}

func netFromSpec(spec netSpec) (*Net[float64], error) {
	if len(spec.Layers) == 0 {
		return nil, fmt.Errorf("nn: network has no layers")
	}
	n := &Net[float64]{}
	for i, ls := range spec.Layers {
		// In is bounded by len(W)/Out before the product is formed, so
		// no hostile pair of widths overflows into a matching length.
		if ls.In < 0 || ls.Out < 0 || len(ls.B) != ls.Out ||
			(ls.Out > 0 && ls.In > len(ls.W)/ls.Out) || len(ls.W) != ls.In*ls.Out {
			return nil, fmt.Errorf("nn: layer %d spec has inconsistent shapes", i)
		}
		l := &Layer[float64]{
			Kind: LayerKind(ls.Kind),
			W:    tensor.MatrixFrom(ls.In, ls.Out, ls.W),
			B:    ls.B,
		}
		n.Layers = append(n.Layers, l)
	}
	if err := n.check(); err != nil {
		return nil, err
	}
	return n, nil
}

// Save writes the network to w in the portable double-precision format.
func Save[T tensor.Float](w io.Writer, n *Net[T]) error {
	return gob.NewEncoder(w).Encode(specFromNet(n))
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Net[float64], error) {
	var spec netSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	return netFromSpec(spec)
}
