//go:build purego || !amd64

package compress

import "deepmd-go/internal/tensor"

// No vectorized Horner kernels in this build (purego, or any GOARCH but
// amd64): every channel goes through the scalar recursion in evalSeg.
func hornerCover[T tensor.Float](cs []T, u, invH T, g, dg []T, m int) int { return 0 }

// No tile kernels either: every tile takes the row route.
type tileArgs struct{}

func tileStart[T tensor.Float](tb *Table[T], a *tileArgs, t, ts []T, backward bool) bool {
	return false
}

func forwardTile[T tensor.Float](tb *Table[T], a *tileArgs, tile, ts []T) bool { return false }

func backwardTile[T tensor.Float](tb *Table[T], a *tileArgs, tile, out, ts []T) bool { return false }
