//go:build amd64 && !purego

package neighbor

import (
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// scanArgs is the argument block of scanAVX512. The field offsets are
// hard-coded in scan_amd64.s (SA_* defines) and asserted by
// TestScanArgsLayout.
type scanArgs struct {
	x, y, z unsafe.Pointer // the candidates' coordinates, n each
	idx     unsafe.Pointer // their n indices (int32)
	hits    unsafe.Pointer // room for n hit words
	box     unsafe.Pointer // the three box edges, nil for open boundaries
	n       uintptr        // candidates, >= 1
	self    uintptr        // the row's atom, never its own hit
	ctr     [3]float64     // the row atom's coordinates
	rc2     float64        // the squared build cutoff
}

// scanKernel runs scanAtoms' pair test for row i on the AVX-512 kernel,
// eight candidates per zmm, and returns how many leading candidates it
// tested: all of them, or up to the first group of eight holding a far
// image, or none without the kernel. It wrote the found hits to
// hits[:found] (and non-hit words after them, as the Go loop does), and
// zero is 1 when a tested candidate other than i lies at zero distance.
// The caller's Go loop does the rest.
func scanKernel(b *builder, i int, cand []int32, c coords, hits []int32) (done, found, zero int) {
	if len(cand) == 0 || cpufeat.Active() != cpufeat.AVX512 {
		return 0, 0, 0
	}
	n := len(cand)
	_, _, _, _ = hits[n-1], c[0][n-1], c[1][n-1], c[2][n-1]
	a := scanArgs{
		x: unsafe.Pointer(&c[0][0]), y: unsafe.Pointer(&c[1][0]), z: unsafe.Pointer(&c[2][0]),
		idx: unsafe.Pointer(&cand[0]), hits: unsafe.Pointer(&hits[0]),
		n: uintptr(n), self: uintptr(i),
		ctr: [3]float64{b.pos[3*i], b.pos[3*i+1], b.pos[3*i+2]},
		rc2: b.rc * b.rc,
	}
	if b.box != nil {
		a.box = unsafe.Pointer(&b.box.L[0])
	}
	done, found, zeros := scanAVX512(&a)
	return done, found, b2i(zeros != 0)
}

// scanAVX512 returns the candidates tested, the hits written and the mask
// of the lanes found at zero distance.
//
//go:noescape
func scanAVX512(args *scanArgs) (done, found, zeros int)
