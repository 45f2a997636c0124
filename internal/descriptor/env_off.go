//go:build purego || !amd64

package descriptor

import "deepmd-go/internal/neighbor"

// No Environment kernels in this build: every entry and row goes through
// the Go loops in env.go.
func envRefresh(pos []float64, i int, nbrs []int32, dist []float64, box *neighbor.Box) int {
	return 0
}

func envFill(cfg Config, pos []float64, i int, nbrs []int32, box *neighbor.Box, r, geo []float64) int {
	return 0
}
