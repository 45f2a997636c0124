//go:build purego || !amd64

package tensor

import "deepmd-go/internal/tensor/cpufeat"

// No SIMD kernels in this build: simdCaps reports nothing available, so
// gemmSIMD/gemmNTSIMD/gemmTNSIMD always decline and every GEMM routes
// through the naive loops — the purego contract. cpufeat's own
// purego detect keeps Active() at Generic, so the tile entry points below
// are unreachable.
func simdCaps(cpufeat.Family, int) (simdKernelCaps, bool) { return simdKernelCaps{}, false }

func tsTile[T Float](cpufeat.Family, *tileArgs) { panic("tensor: no SIMD kernels in this build") }

func ntTile[T Float](cpufeat.Family, *tileArgs) { panic("tensor: no SIMD kernels in this build") }

// The element-wise passes run their Go loops.
func laneMul[T Float](_, _, _ []T) bool { return false }

func laneAdd[T Float](_, _ []T) bool { return false }

func laneSkipDouble[T Float](_, _ []T, _, _ int) bool { return false }

func laneSkipFold[T Float](_, _ []T, _, _ int) bool { return false }

func laneTanh[T Float](_, _ []T) bool { return false }
