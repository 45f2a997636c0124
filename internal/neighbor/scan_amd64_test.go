//go:build amd64 && !purego

package neighbor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"deepmd-go/internal/tensor/cpufeat"
)

// TestScanArgsLayout pins the scanArgs field offsets the SA_* defines in
// scan_amd64.s hard-code.
func TestScanArgsLayout(t *testing.T) {
	var a scanArgs
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"x", unsafe.Offsetof(a.x), 0},
		{"y", unsafe.Offsetof(a.y), 8},
		{"z", unsafe.Offsetof(a.z), 16},
		{"idx", unsafe.Offsetof(a.idx), 24},
		{"hits", unsafe.Offsetof(a.hits), 32},
		{"box", unsafe.Offsetof(a.box), 40},
		{"n", unsafe.Offsetof(a.n), 48},
		{"self", unsafe.Offsetof(a.self), 56},
		{"ctr", unsafe.Offsetof(a.ctr), 64},
		{"rc2", unsafe.Offsetof(a.rc2), 88},
		{"sizeof", unsafe.Sizeof(a), 96},
	} {
		if c.got != c.want {
			t.Errorf("scanArgs %s offset %d, asm expects %d", c.name, c.got, c.want)
		}
	}
}

// FuzzScanKernelBits runs scanAtoms on one row's candidates under AVX-512
// (the kernel, then the Go loop from where it stops) and under the generic
// family (the Go loop alone), in periodic and open mode, and demands the
// same hit words and coincident flag. Candidates are random atoms within a
// quarter box of the cell, so displacements reach past ±L/2 and the fold
// picks every multiple; coordinates and the cutoff are multiples of 2^-10,
// so an offset of rc lands exactly on the cutoff. One seed in three puts
// the row atom at the origin of a cube of edge exactly 2*rc, where an atom
// at L/2 or one ulp either side sits on the fold's tie and on the cutoff.
// 11-byte records (lane, kind, axis, 8 value bytes) then plant at a lane
// the row's own index, a coincident atom, one coincident through the next
// image or through a far one (2 to 4 box edges away), an atom at L/2 or
// one ulp either side, one at rc, or arbitrary coordinate bits. Without a
// far image (or a NaN) in a periodic row the kernel must test every
// candidate, so the comparison is the kernel's, not the Go loop's with
// itself.
func FuzzScanKernelBits(f *testing.F) {
	if !cpufeat.Available(cpufeat.AVX512) {
		f.Skip("AVX-512 scan kernel not executable on this host/build")
	}
	rec := func(lane, kind, axis byte, v float64) []byte {
		b := []byte{lane, kind, axis, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[3:], math.Float64bits(v))
		return b
	}
	// Own index, coincident atoms and far images at lanes 0 and 7 of a
	// group, over 1, 7, 8, 9 and 17 candidates (whole groups and tails).
	planted := slices.Concat(rec(0, 0, 0, 0), rec(7, 1, 0, 0), rec(8, 3, 1, 0), rec(15, 2, 2, 0), rec(16, 1, 0, 0))
	for _, n := range []uint8{1, 7, 8, 9, 17} {
		for _, periodic := range []bool{true, false} {
			f.Add(int64(n), n, periodic, []byte(nil))
			f.Add(int64(n), n, periodic, planted)
		}
	}
	// Ties and the cutoff: atoms at L/2 and one ulp either side (the value
	// byte picks the side) on the exact cube, and atoms at rc.
	ties := slices.Concat(rec(0, 4, 0, math.Float64frombits(0)), rec(1, 4, 1, math.Float64frombits(1)), rec(7, 4, 2, math.Float64frombits(2)),
		rec(8, 4, 0, math.Float64frombits(1)), rec(9, 6, 1, 0), rec(10, 6, 0, 0), rec(15, 3, 0, 0))
	f.Add(int64(3), uint8(17), true, ties)
	f.Add(int64(6), uint8(16), true, ties)
	f.Add(int64(4), uint8(17), true, ties)
	f.Add(int64(4), uint8(17), false, ties)
	f.Add(int64(5), uint8(16), true, slices.Concat(rec(3, 5, 1, math.NaN()), rec(12, 5, 0, math.Inf(-1))))
	f.Fuzz(func(t *testing.T, seed int64, ncand uint8, periodic bool, data []byte) {
		n := int(ncand) % 65
		rng := rand.New(rand.NewSource(seed))
		dyadic := func(v float64) float64 { return math.Round(v*1024) / 1024 }
		box := &Box{}
		for k := range box.L {
			box.L[k] = dyadic(4 + 8*rng.Float64())
		}
		rc := dyadic((0.2 + 0.3*rng.Float64()) * min(box.L[0], box.L[1], box.L[2]))
		edge := seed%3 == 0
		if edge {
			box.L = [3]float64{2 * rc, 2 * rc, 2 * rc}
		}
		nall := n + 1
		pos := make([]float64, 3*nall)
		for a := range pos {
			pos[a] = dyadic((1.5*rng.Float64() - 0.25) * box.L[a%3])
		}
		i := rng.Intn(nall)
		if edge {
			copy(pos[3*i:3*i+3], []float64{0, 0, 0})
		}
		cand := make([]int32, 0, n)
		for j := range int32(nall) {
			if int(j) != i {
				cand = append(cand, j)
			}
		}
		for ; len(data) >= 11 && n > 0; data = data[11:] {
			k, axis, v := int(data[0])%n, int(data[2])%3, math.Float64frombits(binary.LittleEndian.Uint64(data[3:]))
			j := int(cand[k])
			l := box.L[axis]
			at := func(off float64) {
				copy(pos[3*j:3*j+3], pos[3*i:3*i+3])
				pos[3*j+axis] += off
			}
			switch data[1] % 7 {
			case 0:
				cand[k] = int32(i)
			case 1:
				at(0)
			case 2:
				at(l)
			case 3:
				at(float64(2+int(data[3])%3) * l)
			case 4:
				at(math.Nextafter(l/2, l/2+float64(int(data[3])%3-1)))
			case 5:
				pos[3*j+axis] = v
			case 6:
				at(rc)
			}
		}
		b := &builder{pos: pos, rc: rc}
		if periodic {
			b.box = box
			for k, l := range box.L {
				b.inv[k] = 1 / l
			}
		}
		c := gather(pos, cand)
		scan := func(fam cpufeat.Family) *rowScan {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			sc := &rowScan{hits: []int32{-1}}
			sc.scanAtoms(b, i, cand, c)
			return sc
		}
		prev := cpufeat.Active()
		defer cpufeat.SetActive(prev)
		want, got := scan(cpufeat.Generic), scan(cpufeat.AVX512)
		if !slices.Equal(got.hits, want.hits) || got.coincident != want.coincident {
			t.Fatalf("row %d, %d candidates, periodic %v:\nkernel hits %v, coincident %d\nGo loop     %v, coincident %d",
				i, n, periodic, got.hits, got.coincident, want.hits, want.coincident)
		}
		far := false
		for s := range cand {
			for k := range 3 {
				q := (c[k][s] - pos[3*i+k]) / box.L[k]
				far = far || periodic && !(math.Abs(q) < 1.5)
			}
		}
		if done, _, _ := scanKernel(b, i, cand, c, make([]int32, n)); !far && done != n {
			t.Fatalf("no far image, yet the kernel tested %d of %d candidates", done, n)
		}
	})
}
