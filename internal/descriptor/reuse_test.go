package descriptor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
)

// reuseFrame is one Environment input of the Scratch-reuse tests.
type reuseFrame struct {
	cfg   Config
	pos   []float64
	types []int
	list  *neighbor.List
	box   *neighbor.Box
}

// The reuse script: every frame is three bytes, (op, size, sel). The op
// says how the frame derives from the previous one.
const (
	opNew        = iota // new random atoms (size picks how many), new list
	opJitter            // the previous atoms moved a little under the old list: counts move both ways
	opExpand            // positions and box scaled up under the old list: neighbors leave the cutoff
	opCoincident        // one neighbor moved onto its center
	numReuseOps
)

// reuseSequence turns a script into frames. Positions come from the seeded
// generator only, so every frame is finite and formats without error.
func reuseSequence(t testing.TB, seed int64, script []byte) []reuseFrame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var frames []reuseFrame
	for ; len(script) >= 3 && len(frames) < 8; script = script[3:] {
		op, size, sel := script[0]%numReuseOps, int(script[1]), int(script[2])
		if len(frames) == 0 {
			op = opNew
		}
		var f reuseFrame
		if op == opNew {
			n := 1 + size%48
			f.cfg = Config{Rcut: 4.0, RcutSmth: 3.0, Sel: []int{1 + sel%7, 1 + sel/7%9}}
			f.box = &neighbor.Box{L: [3]float64{11, 11, 11}}
			f.pos = make([]float64, 3*n)
			f.types = make([]int, n)
			for i := range f.types {
				for k := 0; k < 3; k++ {
					f.pos[3*i+k] = rng.Float64() * f.box.L[k]
				}
				f.types[i] = rng.Intn(2)
			}
			var err error
			f.list, err = neighbor.Build(neighbor.Spec{Rcut: f.cfg.Rcut, Skin: 1.0, Sel: f.cfg.Sel}, f.pos, f.types, n, f.box, 1)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			f = frames[len(frames)-1]
			f.pos = slices.Clone(f.pos)
			switch op {
			case opJitter:
				for i := range f.pos {
					f.pos[i] += 0.3 * (rng.Float64() - 0.5)
				}
			case opExpand:
				scale := 1.05 + 0.2*float64(size)/255
				for i := range f.pos {
					f.pos[i] *= scale
				}
				f.box = &neighbor.Box{L: [3]float64{f.box.L[0] * scale, f.box.L[1] * scale, f.box.L[2] * scale}}
			case opCoincident:
				for i, nbrs := range f.list.Entries {
					if len(nbrs) > 0 {
						copy(f.pos[3*nbrs[0]:3*nbrs[0]+3], f.pos[3*i:3*i+3])
						break
					}
				}
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// requireSameEnv asserts two environments are the same bit for bit: the
// offsets, every formatted section, the overflow count, R and Geo. The
// formatted table's unused room (past an overflowing row's last section)
// is not part of the output.
func requireSameEnv(t testing.TB, label string, got, want *EnvOut) {
	t.Helper()
	eq := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	sameSections := func() bool {
		nt := len(want.Fmt.Sel)
		for k := 0; k < want.Nloc*nt; k++ {
			if !slices.Equal(got.Fmt.Section(k/nt, k%nt), want.Fmt.Section(k/nt, k%nt)) {
				return false
			}
		}
		return true
	}
	switch {
	case got.Nloc != want.Nloc || !slices.Equal(got.Fmt.Sel, want.Fmt.Sel):
		t.Fatalf("%s: shape %d x %v, want %d x %v", label, got.Nloc, got.Fmt.Sel, want.Nloc, want.Fmt.Sel)
	case !slices.Equal(got.Off, want.Off):
		t.Fatalf("%s: Off differs", label)
	case !sameSections():
		t.Fatalf("%s: formatted sections differ", label)
	case got.Fmt.Overflow != want.Fmt.Overflow:
		t.Fatalf("%s: Fmt.Overflow %d, want %d", label, got.Fmt.Overflow, want.Fmt.Overflow)
	case !eq(got.R, want.R):
		t.Fatalf("%s: R differs", label)
	case !eq(got.Geo, want.Geo):
		t.Fatalf("%s: Geo differs", label)
	}
}

// requireBaselineRows asserts that got, the optimized operator's output,
// holds the baseline operator's rows bit for bit: the same offsets and
// overflow count, and in every section as many kept neighbors, the same
// neighbors with a row, each row's R and Geo bitwise the baseline's row
// for that neighbor. The baseline orders a section by distance, the
// optimized format by index inside the cutoff (coincident neighbors
// first), so the rows of a section that kept every neighbor inside the
// cutoff are compared in that order too; a section that dropped some is
// in key order. The kept neighbors past the cutoff carry no row, and of a
// section with more of them than room the two keep different ones.
func requireBaselineRows(t testing.TB, label string, got, base *EnvOut) {
	t.Helper()
	if got.Nloc != base.Nloc || !slices.Equal(got.Off, base.Off) || got.Fmt.Overflow != base.Fmt.Overflow {
		t.Fatalf("%s: %d atoms, overflow %d, offsets equal %v; baseline %d atoms, overflow %d", label, got.Nloc, got.Fmt.Overflow, slices.Equal(got.Off, base.Off), base.Nloc, base.Fmt.Overflow)
	}
	nt := len(base.Fmt.Sel)
	for k := 0; k < base.Nloc*nt; k++ {
		gs, bs := got.Fmt.Section(k/nt, k%nt), base.Fmt.Section(k/nt, k%nt)
		lo, n := base.Off[k], base.Off[k+1]-base.Off[k]
		if len(gs) != len(bs) {
			t.Fatalf("%s: atom %d section %d keeps %d, baseline %d", label, k/nt, k%nt, len(gs), len(bs))
		}
		row := map[int32]int{}
		for x, j := range bs[:n] {
			row[j] = lo + x
		}
		for x, j := range gs[:n] {
			y, ok := row[j]
			if !ok {
				t.Fatalf("%s: atom %d section %d: neighbor %d has a row, not in the baseline's %v", label, k/nt, k%nt, j, bs[:n])
			}
			for c := 0; c < 4; c++ {
				if math.Float64bits(got.R[4*(lo+x)+c]) != math.Float64bits(base.R[4*y+c]) || math.Float64bits(got.Geo[4*(lo+x)+c]) != math.Float64bits(base.Geo[4*y+c]) {
					t.Fatalf("%s: atom %d section %d: neighbor %d's row differs from the baseline's", label, k/nt, k%nt, j)
				}
			}
			if x > 0 && len(gs) < base.Fmt.Sel[k%nt] && got.R[4*(lo+x-1)] != 0 && gs[x-1] >= j {
				t.Fatalf("%s: atom %d section %d: rows %v not in index order", label, k/nt, k%nt, gs[:n])
			}
		}
	}
}

// checkReuse runs the frames through ONE Scratch twice over — as whole
// Environment calls, and as Begin, Rows, Pack and Fill over the atom
// blocks in reverse order on a second scratch — and through one reused
// ConvertRows destination, each against a fresh Scratch per frame and
// the baseline operator.
func checkReuse(t testing.TB, frames []reuseFrame) {
	t.Helper()
	var whole, blocked Scratch
	var ws RowScratch
	var rT []float32
	for fi, f := range frames {
		var fresh Scratch
		want, err := fresh.Environment(nil, f.cfg, f.pos, f.types, f.list, f.box)
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		checkCountInvariant(t, fmt.Sprintf("frame %d fresh", fi), f.cfg, f.pos, f.box, want)
		base, err := EnvironmentBaseline(nil, f.cfg, f.pos, f.types, f.list, f.box)
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		requireBaselineRows(t, fmt.Sprintf("frame %d baseline", fi), want, base)

		got, err := whole.Environment(nil, f.cfg, f.pos, f.types, f.list, f.box)
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		requireSameEnv(t, fmt.Sprintf("frame %d reused", fi), got, want)

		env := blocked.Begin(f.cfg, f.list)
		for b := ProdBlocks - 1; b >= 0; b-- {
			lo, hi := BlockRange(f.list.Nloc, b)
			st, err := blocked.Rows(&ws, f.cfg, f.pos, f.list, f.box, lo, hi)
			if err != nil {
				t.Fatalf("frame %d block %d: %v", fi, b, err)
			}
			env.Fmt.Overflow += st.Dropped
		}
		blocked.Pack()
		for b := ProdBlocks - 1; b >= 0; b-- {
			lo, hi := BlockRange(f.list.Nloc, b)
			blocked.Fill(f.cfg, f.pos, f.box, lo, hi)
		}
		requireSameEnv(t, fmt.Sprintf("frame %d blocked", fi), env, want)

		// The converted rows: a destination reused across frames, grown as
		// internal/core grows a frame slot's, holds exactly the rows, and
		// they are the padded view's without the padding.
		rT = tensor.Grow(rT, len(want.R))
		for b := 0; b < ProdBlocks; b++ {
			lo, hi := BlockRange(f.list.Nloc, b)
			ConvertRows(env, rT, lo, hi)
		}
		padded, nt, stride := ConvertR[float32](nil, want, nil), len(f.cfg.Sel), f.cfg.Stride()
		for k := 0; k < want.Nloc*nt; k++ {
			i, tj := k/nt, k%nt
			at := i*stride + Config{Sel: f.cfg.Sel[:tj]}.Stride()
			n := want.Off[k+1] - want.Off[k]
			if !slices.Equal(rT[4*want.Off[k]:4*want.Off[k+1]], padded[4*at:4*(at+n)]) {
				t.Fatalf("frame %d atom %d section %d: converted rows differ from the padded view", fi, i, tj)
			}
			for _, v := range padded[4*(at+n) : 4*(at+f.cfg.Sel[tj])] {
				if v != 0 {
					t.Fatalf("frame %d atom %d section %d: padded view not zero past the rows", fi, i, tj)
				}
			}
		}
	}
}

// One Scratch through frames whose row counts shrink and grow, with a
// coincident pair, a different atom count and a different stride in
// between, leaves exactly what a fresh Scratch computes: R, Geo, Off, the
// formatted sections and Fmt.Overflow, bit for bit — no row of an earlier
// frame survives into a later one.
func TestEnvironmentReuseMatchesFresh(t *testing.T) {
	script := []byte{
		opNew, 39, 3 + 7*5, // 40 atoms, Sel {4, 6}
		opJitter, 0, 0,
		opExpand, 255, 0,
		opCoincident, 0, 0,
		opJitter, 0, 0,
		opNew, 24, 3 + 7*5, // nloc changes, stride does not
		opNew, 24, 6 + 7*2, // Sel {7, 3}: same stride, different sections
		opNew, 24, 1 + 7*1, // stride changes
	}
	frames := reuseSequence(t, 1, script)
	if len(frames) != 8 {
		t.Fatalf("%d frames", len(frames))
	}

	// The premises: the expansion shrinks sections below rows that were
	// filled, and the coincident frame has a declined row inside a section.
	count := func(f reuseFrame) *EnvOut {
		var sc Scratch
		env, err := sc.Environment(nil, f.cfg, f.pos, f.types, f.list, f.box)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	rows := func(env *EnvOut, k int) int { return env.Off[k+1] - env.Off[k] }
	before := count(frames[1])
	beforeRows := make([]int, len(before.Off)-1)
	for k := range beforeRows {
		beforeRows[k] = rows(before, k)
	}
	after := count(frames[2])
	shrunk := 0
	for k, n := range beforeRows {
		if rows(after, k) < n {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("the expansion shrank no section")
	}
	co := count(frames[3])
	declined := false
	for x := 0; x < len(co.R)/4 && !declined; x++ {
		declined = co.R[4*x] == 0
	}
	if !declined {
		t.Fatal("no coincident neighbor inside a section")
	}
	checkReuse(t, frames)
}

func FuzzEnvironmentReuse(f *testing.F) {
	f.Add(int64(1), []byte{opNew, 39, 38, opJitter, 0, 0, opExpand, 255, 0, opCoincident, 0, 0})
	f.Add(int64(2), []byte{opNew, 0, 0, opNew, 47, 62, opNew, 0, 0})
	f.Add(int64(3), []byte{opNew, 20, 8, opExpand, 10, 0, opExpand, 200, 0, opJitter, 0, 0, opNew, 20, 8})
	// Sel {1, 1}: every section overflows, then a coincident pair fills
	// one whole section with a declined row.
	f.Add(int64(4), []byte{opNew, 47, 0, opCoincident, 0, 0, opJitter, 0, 0})
	f.Add(int64(5), []byte{opNew, 30, 62, opCoincident, 0, 0, opExpand, 100, 0, opCoincident, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		checkReuse(t, reuseSequence(t, seed, script))
	})
}

// The blocked products — every block into its own partial force buffer and
// virial, summed in block order — against the baseline operators, with the
// network gradient poisoned past the last row: nothing there may be read,
// and the skin entries of the formatted table have no row to read.
func TestBlockedProdsMatchBaselines(t *testing.T) {
	box := &neighbor.Box{L: [3]float64{14, 14, 14}}
	const n = 90
	pos, types, list := buildTestSystem(t, 13, n, testCfg, box)
	var sc Scratch
	env, err := sc.Environment(nil, testCfg, pos, types, list, box)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	rows := len(env.R) / 4
	clean := make([]float64, 4*rows)
	poisoned := make([]float64, 4*(rows+8))
	poisoned32 := make([]float32, len(poisoned))
	for x := range poisoned {
		if x < len(clean) {
			v := float64(float32(rng.NormFloat64()))
			clean[x], poisoned[x], poisoned32[x] = v, v, float32(v)
		} else {
			poisoned[x], poisoned32[x] = math.NaN(), float32(math.NaN())
		}
	}
	skin := 0
	for k := 0; k < n*len(testCfg.Sel); k++ {
		skin += len(env.Fmt.Section(k/len(testCfg.Sel), k%len(testCfg.Sel))) - (env.Off[k+1] - env.Off[k])
	}
	if skin == 0 {
		t.Fatal("no skin entry beyond a section's rows: the case tests nothing the old loops did not skip")
	}
	blocked := func(prod func(lo, hi int, force []float64, w *[9]float64) int64) ([]float64, [9]float64, int64) {
		partials := make([]float64, ProdBlocks*3*n)
		var w [9]float64
		var slots int64
		for b := 0; b < ProdBlocks; b++ {
			lo, hi := BlockRange(n, b)
			var wb [9]float64
			slots += prod(lo, hi, partials[b*3*n:(b+1)*3*n], &wb)
			for x := range w {
				w[x] += wb[x]
			}
		}
		force := make([]float64, 3*n)
		for b := 0; b < ProdBlocks; b++ {
			lo, hi := BlockRange(3*n, b)
			SumPartials(partials, force, lo, hi)
		}
		return force, w, slots
	}
	force, w, slots := blocked(func(lo, hi int, f []float64, w *[9]float64) int64 {
		return ProdRows(poisoned, env, lo, hi, f, w)
	})
	force32, w32, _ := blocked(func(lo, hi int, f []float64, w *[9]float64) int64 {
		return ProdRows(poisoned32, env, lo, hi, f, w)
	})

	if slots != int64(rows) {
		t.Fatalf("visited %d slots, want the %d real rows", slots, rows)
	}
	baseF := ProdForceBaseline(nil, clean, env, n)
	baseW := ProdVirialBaseline(nil, clean, env)
	var total [3]float64
	for i := range force {
		if !(math.Abs(force[i]-baseF[i]) <= 1e-12) {
			t.Fatalf("force[%d]: blocked %g, baseline %g", i, force[i], baseF[i])
		}
		if math.Float64bits(force[i]) != math.Float64bits(force32[i]) {
			t.Fatalf("force[%d]: float32 gradient %g, the same values in float64 %g", i, force32[i], force[i])
		}
		total[i%3] += force[i]
	}
	for x := range w {
		if !(math.Abs(w[x]-baseW[x]) <= 1e-10) {
			t.Fatalf("virial[%d]: blocked %g, baseline %g", x, w[x], baseW[x])
		}
	}
	if w != w32 {
		t.Fatal("virial differs between a float32 gradient and the same values in float64")
	}
	// Newton's third law: every slot adds dd to its center and takes it
	// from its neighbor, so a periodic frame has no net force.
	for a, v := range total {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("net force component %d = %g", a, v)
		}
	}

	// The exported whole-range operators are the same body.
	whole := make([]float64, 3*n)
	ProdForce(nil, poisoned, env, whole)
	for i := range whole {
		if !(math.Abs(whole[i]-baseF[i]) <= 1e-12) {
			t.Fatalf("ProdForce[%d] = %g, baseline %g", i, whole[i], baseF[i])
		}
	}
	wholeW := ProdVirial(nil, poisoned, env)
	for x := range wholeW {
		if !(math.Abs(wholeW[x]-baseW[x]) <= 1e-10) {
			t.Fatalf("ProdVirial[%d] = %g, baseline %g", x, wholeW[x], baseW[x])
		}
	}
}
