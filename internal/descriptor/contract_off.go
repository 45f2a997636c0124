//go:build purego || !amd64

package descriptor

import "deepmd-go/internal/tensor"

// No vectorized contraction kernels in this build: every channel goes
// through the reference loops in fused.go.
func contractFwdCover[T tensor.Float](g, tile []T, nk, m int, acc []T) int { return 0 }

func contractBwdCover[T tensor.Float](g, dg, dT []T, nk, m int, ab []T) int { return 0 }

func descForwardKernel[T tensor.Float](t []T, m, ax int, d []T) bool { return false }

func descBackwardKernel[T tensor.Float](dD []T, m, ax int, scale T, t, buf []T) bool { return false }
