//go:build purego || !amd64

package neighbor

// No scan kernel in this build: scanAtoms' Go loop tests every candidate.
func scanKernel(b *builder, i int, cand []int32, c coords, hits []int32) (done, found, zero int) {
	return 0, 0, 0
}
