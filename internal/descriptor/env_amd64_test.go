//go:build amd64 && !purego

package descriptor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor/cpufeat"
)

// TestEnvArgsLayout pins the envArgs field offsets the EA_* defines in
// env_amd64.s hard-code.
func TestEnvArgsLayout(t *testing.T) {
	var a envArgs
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"pos", unsafe.Offsetof(a.pos), 0},
		{"ctr", unsafe.Offsetof(a.ctr), 8},
		{"idx", unsafe.Offsetof(a.idx), 16},
		{"out", unsafe.Offsetof(a.out), 24},
		{"geo", unsafe.Offsetof(a.geo), 32},
		{"box", unsafe.Offsetof(a.box), 40},
		{"n", unsafe.Offsetof(a.n), 48},
		{"nall", unsafe.Offsetof(a.nall), 56},
		{"rcut", unsafe.Offsetof(a.rcut), 64},
		{"rmin", unsafe.Offsetof(a.rmin), 72},
		{"width", unsafe.Offsetof(a.width), 80},
		{"sizeof", unsafe.Sizeof(a), 88},
	} {
		if c.got != c.want {
			t.Errorf("envArgs %s offset %d, asm expects %d", c.name, c.got, c.want)
		}
	}
}

// On a well-formed frame the kernels write every entry and row, so the
// bitwise fuzz below compares kernel output, not the Go loops with
// themselves.
func TestEnvKernelsCoverCleanFrame(t *testing.T) {
	if !cpufeat.Available(cpufeat.AVX512) {
		t.Skip("AVX-512 Environment kernels not executable on this host/build")
	}
	prev, _ := cpufeat.SetActive(cpufeat.AVX512)
	defer cpufeat.SetActive(prev)
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	pos, types, list := buildTestSystem(t, 3, 90, testCfg, box)
	var sc Scratch
	env, err := sc.Environment(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*neighbor.Box{box, nil} {
		for i, nbrs := range list.Entries {
			if k := envRefresh(pos, i, nbrs, make([]float64, len(nbrs)), b); k != len(nbrs) {
				t.Fatalf("box %v, atom %d: refresh kernel wrote %d of %d entries", b != nil, i, k, len(nbrs))
			}
		}
	}
	switched := 0
	for k := 0; k+1 < len(env.Off); k++ {
		i, t0 := k/len(testCfg.Sel), k%len(testCfg.Sel)
		n := env.Off[k+1] - env.Off[k]
		nbrs := env.Fmt.Section(i, t0)[:n]
		if got := envFill(testCfg, pos, i, nbrs, box, make([]float64, 4*n), make([]float64, 4*n)); got != n {
			t.Fatalf("atom %d section %d: fill kernel wrote %d of %d rows", i, t0, got, n)
		}
		for x := env.Off[k]; x < env.Off[k+1]; x++ {
			if g := env.Geo[4*x : 4*x+3]; math.Sqrt(g[0]*g[0]+g[1]*g[1]+g[2]*g[2]) >= testCfg.RcutSmth {
				switched++
			}
		}
	}
	if switched == 0 {
		t.Fatal("no row in the switched shell: the trigonometric lanes went untested")
	}
}

// FuzzEnvironmentKernelBits runs Begin, Rows atom by atom, Pack and Fill
// under AVX-512 and under AVX2 (the Go loops) and demands the same bits:
// every atom's refreshed distances, the row stats, the error text, Off, R
// and Geo. A frame holds up to 32 atoms with dyadic coordinates, so a
// neighbor planted at an axis offset of Rcut or RcutSmth from its center
// sits there exactly; special records plant such neighbors, coincident
// atoms, neighbors just inside Rcut (where u can round to 1), far images,
// arbitrary coordinate and box-edge bits (±Inf, NaN, subnormals) and
// arbitrary neighbor indices.
func FuzzEnvironmentKernelBits(f *testing.F) {
	if !cpufeat.Available(cpufeat.AVX512) {
		f.Skip("AVX-512 Environment kernels not executable on this host/build")
	}
	rec := func(sel byte, idx uint16, v float64) []byte {
		b := []byte{sel, byte(idx), byte(idx >> 8), 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[3:], math.Float64bits(v))
		return b
	}
	cat := func(bs ...[]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}
	// Shape: bits 0-1 pick the cutoffs, bit 2 a box, bits 3-7 the atoms.
	f.Add(int64(1), uint8(240), uint8(40), []byte(nil))
	f.Add(int64(2), uint8(241), uint8(40), []byte(nil))
	f.Add(int64(3), uint8(244), uint8(39), []byte(nil))
	f.Add(int64(4), uint8(245), uint8(40), []byte(nil))
	f.Add(int64(2), uint8(0), uint8(0), []byte(nil))
	// Fuzzing found these against an FMA in the norm and against the cos
	// polynomial in Estrin order.
	f.Add(int64(-7), uint8('3'), uint8(2), []byte("&\t%00000000"))
	f.Add(int64(59), uint8(213), uint8(40), []byte("0"))
	f.Add(int64(3), uint8(17), uint8(9), cat(rec(envRcut, 0, 0), rec(envRcutSmth, 1, 0), rec(envCoincide, 2, 0)))
	f.Add(int64(4), uint8(66), uint8(23), cat(rec(envNearRcut, 0, 0), rec(envNearRcut, 9, 0), rec(envNearRcut, 300, 0)))
	f.Add(int64(5), uint8(5), uint8(33), cat(rec(envFar, 3, 1.7), rec(envFar, 1, -2.5)))
	f.Add(int64(6), uint8(44), uint8(12), cat(rec(envPos, 7, math.NaN()), rec(envPos, 20, math.Inf(-1))))
	f.Add(int64(7), uint8(13), uint8(28), cat(rec(envPos, 4, 5e-324), rec(envBox, 2, math.Inf(1))))
	f.Add(int64(8), uint8(29), uint8(40), cat(rec(envIndex, 5, -1), rec(envIndex, 11, 1e9)))
	f.Add(int64(9), uint8(98), uint8(35), cat(rec(envBox, 0, math.NaN()), rec(envBox, 1, -10)))
	f.Add(int64(10), uint8(130), uint8(40), cat(rec(envPos, 2, 1e300), rec(envCoincide, 0, 0), rec(envNearRcut, 4, 0)))
	f.Fuzz(func(t *testing.T, seed int64, shape, rowLen uint8, special []byte) {
		fr := envFuzzFrame(seed, shape, rowLen, special)
		got := runEnvKernelCase(t, cpufeat.AVX512, fr)
		want := runEnvKernelCase(t, cpufeat.AVX2, fr)
		if got != want {
			t.Fatalf("AVX-512 kernels and Go loops differ:\navx512: %s\navx2:   %s", got, want)
		}
	})
}

// The special records of FuzzEnvironmentKernelBits: (kind, idx, value).
const (
	envPos      = iota // coordinate idx takes the value's bits
	envBox             // box edge idx takes the value's bits
	envIndex           // list entry idx takes int32(value)
	envRcut            // entry idx's neighbor moves to its center + Rcut on one axis
	envRcutSmth        // ... to its center + RcutSmth
	envCoincide        // ... onto its center
	envNearRcut        // ... to its center + Rcut less 1 to 8 ulps, the center at the origin
	envFar             // ... to its center + value box edges on one axis
	numEnvSpecials
)

// envFrame is one case of FuzzEnvironmentKernelBits.
type envFrame struct {
	cfg  Config
	pos  []float64
	list *neighbor.List
	box  *neighbor.Box
}

func envFuzzFrame(seed int64, shape, rowLen uint8, special []byte) envFrame {
	rng := rand.New(rand.NewSource(seed))
	cfgs := []Config{
		{Rcut: 4, RcutSmth: 3},
		{Rcut: 6, RcutSmth: 0.5},
		{Rcut: 5, RcutSmth: 5},
		{Rcut: 3, RcutSmth: 1e-3},
	}
	cfg := cfgs[shape&3]
	cfg.Sel = []int{1 + rng.Intn(24), 1 + rng.Intn(24)}
	var box *neighbor.Box
	if shape&4 != 0 {
		l := float64(8 + 2*rng.Intn(4))
		box = &neighbor.Box{L: [3]float64{l, l, l}}
	}
	nall := 2 + int(shape>>3)%31
	nloc := 1 + rng.Intn(min(nall, 4))
	pos := make([]float64, 3*nall)
	for x := range pos {
		pos[x] = float64(rng.Intn(10*64)) / 64 // dyadic: center + offset is exact
	}
	list := &neighbor.List{Nloc: nloc, Entries: make([][]int32, nloc), Types: make([]int32, nall)}
	for j := range list.Types {
		list.Types[j] = int32(rng.Intn(2))
	}
	nent := 0
	for i := range list.Entries {
		row := make([]int32, (int(rowLen)+7*i)%41)
		for k := range row {
			row[k] = int32(rng.Intn(nall))
		}
		list.Entries[i] = row
		nent += len(row)
	}
	// entry maps a record's idx to a list entry: center i, position e in
	// its row.
	entry := func(idx int) (i, e int, ok bool) {
		if nent == 0 {
			return 0, 0, false
		}
		e = idx % nent
		for ; e >= len(list.Entries[i]); i++ {
			e -= len(list.Entries[i])
		}
		return i, e, true
	}
	for ; len(special) >= 11; special = special[11:] {
		kind, idx := special[0]%numEnvSpecials, int(binary.LittleEndian.Uint16(special[1:3]))
		v := math.Float64frombits(binary.LittleEndian.Uint64(special[3:11]))
		if kind == envPos {
			pos[idx%len(pos)] = v
			continue
		}
		if kind == envBox {
			if box != nil {
				box.L[idx%3] = v
			}
			continue
		}
		i, e, ok := entry(idx)
		if !ok {
			continue
		}
		if kind == envIndex {
			list.Entries[i][e] = int32(v)
			continue
		}
		j := int(list.Entries[i][e])
		if i == j || uint(j) >= uint(nall) {
			continue
		}
		axis := idx / 7 % 3
		var off float64
		switch kind {
		case envRcut:
			off = cfg.Rcut
		case envRcutSmth:
			off = cfg.RcutSmth
		case envNearRcut:
			pos[3*i], pos[3*i+1], pos[3*i+2] = 0, 0, 0
			off = cfg.Rcut
			for u := 0; u <= idx%8; u++ {
				off = math.Nextafter(off, 0)
			}
		case envFar:
			if box == nil || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			off = v * box.L[axis]
		}
		copy(pos[3*j:3*j+3], pos[3*i:3*i+3])
		pos[3*j+axis] += off
	}
	return envFrame{cfg: cfg, pos: pos, list: list, box: box}
}

// runEnvKernelCase runs the operator's passes on fr under family fam and
// renders every result bit for bit.
func runEnvKernelCase(t *testing.T, fam cpufeat.Family, fr envFrame) string {
	prev, err := cpufeat.SetActive(fam)
	if err != nil {
		t.Fatal(err)
	}
	defer cpufeat.SetActive(prev)
	var (
		sc  Scratch
		ws  RowScratch
		out []byte
	)
	env := sc.Begin(fr.cfg, fr.list)
	for i := 0; i < fr.list.Nloc; i++ {
		st, err := sc.Rows(&ws, fr.cfg, fr.pos, fr.list, fr.box, i, i+1)
		out = fmt.Appendf(out, "atom %d: %+v %v dist", i, st, err)
		for _, r := range ws.dist {
			out = fmt.Appendf(out, " %x", math.Float64bits(r))
		}
		out = append(out, '\n')
		if err != nil {
			return string(out)
		}
	}
	sc.Pack()
	sc.Fill(fr.cfg, fr.pos, fr.box, 0, fr.list.Nloc)
	out = fmt.Appendf(out, "off %v\n", env.Off)
	for x := range env.R {
		out = fmt.Appendf(out, "%x %x\n", math.Float64bits(env.R[x]), math.Float64bits(env.Geo[x]))
	}
	return string(out)
}
