//go:build amd64 && !purego

package descriptor

import (
	"unsafe"

	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor/cpufeat"
)

// envArgs is the argument block of the Environment kernels. The field
// offsets are hard-coded in env_amd64.s (EA_* defines) and asserted by
// TestEnvArgsLayout.
type envArgs struct {
	pos   unsafe.Pointer // the frame's coordinates, nall x 3
	ctr   unsafe.Pointer // the center atom's coordinates
	idx   unsafe.Pointer // n neighbor indices (int32)
	out   unsafe.Pointer // refresh: n distances; fill: n R~ rows
	geo   unsafe.Pointer // fill: n geometry rows
	box   unsafe.Pointer // the three box edges, nil for open boundaries
	n     uintptr        // entries, >= 1
	nall  uintptr        // atoms in the frame, 3*nall < 2^31
	rcut  float64        // fill: Config.Rcut
	rmin  float64        // fill: Config.RcutSmth
	width float64        // fill: Rcut - RcutSmth, Smooth's rmax - rmin
}

// envKernels reports whether the Environment kernels run for a frame of
// nall atoms: on AVX-512, when the gathers' 32-bit offsets 3*j reach
// every atom.
func envKernels(nall int) bool {
	return cpufeat.Active() == cpufeat.AVX512 && 3*nall < 1<<31
}

// envArgsFor fills the fields both kernels read.
func envArgsFor(pos []float64, i int, nbrs []int32, box *neighbor.Box) envArgs {
	_ = pos[3*i+2]
	a := envArgs{
		pos: unsafe.Pointer(&pos[0]), ctr: unsafe.Pointer(&pos[3*i]), idx: unsafe.Pointer(&nbrs[0]),
		n: uintptr(len(nbrs)), nall: uintptr(len(pos) / 3),
	}
	if box != nil {
		a.box = unsafe.Pointer(&box.L[0])
	}
	return a
}

// envRefresh writes dist[k] = |Displacement(pos, i, nbrs[k], box)| eight
// neighbors per zmm and returns how many leading entries it wrote: all of
// them, or up to the first group of eight that holds an index outside the
// frame, a far image or a non-finite distance, or none without the
// kernel. The caller's Go loop does the rest.
func envRefresh(pos []float64, i int, nbrs []int32, dist []float64, box *neighbor.Box) int {
	if len(nbrs) == 0 || !envKernels(len(pos)/3) {
		return 0
	}
	_ = dist[len(nbrs)-1]
	a := envArgsFor(pos, i, nbrs, box)
	a.out = unsafe.Pointer(&dist[0])
	return envRefreshAVX512(&a)
}

// envFill writes the R~ and geometry rows of section neighbors nbrs of
// atom i into r and geo (4 per row), each as fillEnvSlot and its zeroing
// would, eight rows per zmm, and returns how many leading rows it wrote:
// all of them, or up to the first group of eight that holds an index
// outside the frame, a far image or a non-finite distance, or none without
// the kernel. The caller's Go loop does the rest.
func envFill(cfg Config, pos []float64, i int, nbrs []int32, box *neighbor.Box, r, geo []float64) int {
	if len(nbrs) == 0 || !envKernels(len(pos)/3) {
		return 0
	}
	_, _ = r[4*len(nbrs)-1], geo[4*len(nbrs)-1]
	a := envArgsFor(pos, i, nbrs, box)
	a.out, a.geo = unsafe.Pointer(&r[0]), unsafe.Pointer(&geo[0])
	a.rcut, a.rmin, a.width = cfg.Rcut, cfg.RcutSmth, cfg.Rcut-cfg.RcutSmth
	return envFillAVX512(&a)
}

//go:noescape
func envRefreshAVX512(args *envArgs) int

//go:noescape
func envFillAVX512(args *envArgs) int
