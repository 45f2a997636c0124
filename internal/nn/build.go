package nn

import (
	"math"
	"math/rand"

	"deepmd-go/internal/tensor"
)

// NewEmbeddingNet builds the embedding net of Fig. 1(c): input is the
// scalar s(r), hidden widths as given (the paper uses 25, 50, 100), with a
// plain first layer and skip-connected doubling layers whenever a width
// doubles (the paper's geometry always doubles after the first layer).
// Weights are Xavier-initialized from rng.
func NewEmbeddingNet[T tensor.Float](rng *rand.Rand, widths []int) *Net[T] {
	return newNet[T](rng, embeddingShape(widths))
}

// NewFittingNet builds the fitting net of Fig. 1(d): input is the flattened
// descriptor, hidden widths as given (the paper uses 240, 240, 240) with
// identity skips between equal widths, and a final linear layer to the
// scalar atomic energy. atomEnergyBias is added as the bias of the head so
// an untrained network already predicts the mean atomic energy.
func NewFittingNet[T tensor.Float](rng *rand.Rand, inDim int, widths []int, atomEnergyBias T) *Net[T] {
	n := newNet[T](rng, fittingShape(inDim, widths))
	n.Layers[len(n.Layers)-1].B[0] = atomEnergyBias
	return n
}

// IsEmbeddingNet reports whether n has exactly the layer kinds and widths
// NewEmbeddingNet builds from widths.
func (n *Net[T]) IsEmbeddingNet(widths []int) bool {
	return n.hasShape(embeddingShape(widths))
}

// IsFittingNet reports whether n has exactly the layer kinds and widths
// NewFittingNet builds from inDim and widths.
func (n *Net[T]) IsFittingNet(inDim int, widths []int) bool {
	return n.hasShape(fittingShape(inDim, widths))
}

// layerShape is one dense layer's kind and widths.
type layerShape struct {
	kind    LayerKind
	in, out int
}

// embeddingShape is the layer stack of NewEmbeddingNet: a plain first
// layer from the scalar s(r), then a skip wherever a width doubles or
// repeats.
func embeddingShape(widths []int) []layerShape {
	var s []layerShape
	in := 1
	for i, w := range widths {
		kind := Plain
		if i > 0 {
			switch {
			case w == 2*in:
				kind = SkipDouble
			case w == in:
				kind = SkipSame
			}
		}
		s = append(s, layerShape{kind, in, w})
		in = w
	}
	return s
}

// fittingShape is the layer stack of NewFittingNet: identity skips
// between equal hidden widths, then a linear head to one output.
func fittingShape(inDim int, widths []int) []layerShape {
	var s []layerShape
	in := inDim
	for i, w := range widths {
		kind := Plain
		if i > 0 && w == in {
			kind = SkipSame
		}
		s = append(s, layerShape{kind, in, w})
		in = w
	}
	return append(s, layerShape{Linear, in, 1})
}

// newNet builds the layers of s in order, Xavier-initialized from rng.
func newNet[T tensor.Float](rng *rand.Rand, s []layerShape) *Net[T] {
	n := &Net[T]{}
	for _, l := range s {
		n.Layers = append(n.Layers, newLayer[T](rng, l.in, l.out, l.kind))
	}
	n.validate()
	return n
}

func (n *Net[T]) hasShape(s []layerShape) bool {
	if len(n.Layers) != len(s) {
		return false
	}
	for i, l := range n.Layers {
		if l.Kind != s[i].kind || l.In() != s[i].in || l.Out() != s[i].out {
			return false
		}
	}
	return true
}

// newLayer returns a Xavier-initialized dense layer.
func newLayer[T tensor.Float](rng *rand.Rand, in, out int, kind LayerKind) *Layer[T] {
	l := &Layer[T]{
		Kind: kind,
		W:    tensor.NewMatrix[T](in, out),
		B:    make([]T, out),
	}
	scale := math.Sqrt(2.0 / float64(in+out))
	for i := range l.W.Data {
		l.W.Data[i] = T(rng.NormFloat64() * scale)
	}
	for i := range l.B {
		l.B[i] = T(rng.NormFloat64() * 0.01)
	}
	return l
}

// ConvertNet copies a network into the other precision. The mixed-precision
// model stores all network parameters in single precision (Sec. 5.2.3).
func ConvertNet[Dst, Src tensor.Float](src *Net[Src]) *Net[Dst] {
	out := &Net[Dst]{}
	for _, l := range src.Layers {
		nl := &Layer[Dst]{
			Kind: l.Kind,
			W:    tensor.NewMatrix[Dst](l.W.Rows, l.W.Cols),
			B:    make([]Dst, len(l.B)),
		}
		for i, v := range l.W.Data {
			nl.W.Data[i] = Dst(v)
		}
		for i, v := range l.B {
			nl.B[i] = Dst(v)
		}
		out.Layers = append(out.Layers, nl)
	}
	return out
}

// Clone returns a deep copy of the network.
func Clone[T tensor.Float](n *Net[T]) *Net[T] {
	return ConvertNet[T](n)
}
