package descriptor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepmd-go/internal/neighbor"
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
						copy(f.pos[3*nbrs[0].Index:3*nbrs[0].Index+3], f.pos[3*i:3*i+3])
						break
					}
				}
			}
		}
		frames = append(frames, f)
	}
	return frames
}

func requireSameEnv(t testing.TB, label string, got, want *EnvOut) {
	t.Helper()
	eq := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case got.Nloc != want.Nloc || got.Stride != want.Stride:
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Nloc, got.Stride, want.Nloc, want.Stride)
	case !slices.Equal(got.Count, want.Count):
		t.Fatalf("%s: Count differs", label)
	case !slices.Equal(got.Fmt.Idx, want.Fmt.Idx):
		t.Fatalf("%s: Fmt.Idx differs", label)
	case got.Fmt.Overflow != want.Fmt.Overflow:
		t.Fatalf("%s: Fmt.Overflow %d, want %d", label, got.Fmt.Overflow, want.Fmt.Overflow)
	case !eq(got.R, want.R):
		t.Fatalf("%s: R differs", label)
	case !eq(got.Geo, want.Geo):
		t.Fatalf("%s: Geo differs", label)
	}
}

// checkReuse runs the frames through ONE Scratch twice over — as whole
// Environment calls, and as Begin plus Rows over the atom blocks in reverse
// order on a second scratch — and through one reused ConvertR destination,
// each against a fresh Scratch per frame.
func checkReuse(t testing.TB, frames []reuseFrame) {
	t.Helper()
	var whole, blocked Scratch
	var ws RowScratch
	var rT []float32
	var have []int32
	for fi, f := range frames {
		var fresh Scratch
		want, err := fresh.Environment(nil, f.cfg, f.pos, f.types, f.list, f.box)
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		checkCountInvariant(t, fmt.Sprintf("frame %d fresh", fi), f.cfg, want)

		got, err := whole.Environment(nil, f.cfg, f.pos, f.types, f.list, f.box)
		if err != nil {
			t.Fatalf("frame %d: %v", fi, err)
		}
		requireSameEnv(t, fmt.Sprintf("frame %d reused", fi), got, want)

		env := blocked.Begin(f.cfg, f.list.Nloc)
		for b := ProdBlocks - 1; b >= 0; b-- {
			lo, hi := BlockRange(f.list.Nloc, b)
			st, err := blocked.Rows(&ws, f.cfg, f.pos, f.list, f.box, lo, hi)
			if err != nil {
				t.Fatalf("frame %d block %d: %v", fi, b, err)
			}
			env.Fmt.Overflow += st.Dropped
		}
		requireSameEnv(t, fmt.Sprintf("frame %d blocked", fi), env, want)

		// The converted rows: a destination reused under its own counts
		// (for as long as the shape holds, as a frame slot of internal/core
		// does) equals a from-scratch conversion.
		if fi == 0 || len(rT) != len(want.R) || !slices.Equal(f.cfg.Sel, frames[fi-1].cfg.Sel) {
			rT, have = make([]float32, len(want.R)), make([]int32, len(want.Count))
		}
		for b := 0; b < ProdBlocks; b++ {
			lo, hi := BlockRange(f.list.Nloc, b)
			ConvertRows(env, rT, have, lo, hi)
		}
		if !slices.Equal(rT, ConvertR[float32](nil, want, nil)) {
			t.Fatalf("frame %d: reused ConvertRows destination differs from a fresh ConvertR", fi)
		}
	}
}

// One Scratch through frames whose counts shrink and grow, with a
// coincident pair, a different atom count and a different stride in
// between, leaves exactly what a fresh Scratch computes: R, Geo, Count,
// Fmt.Idx and Fmt.Overflow, bit for bit — the stale-row clears miss nothing.
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

	// The premises: the expansion shrinks counts below slots that were
	// filled, and the coincident frame has a declined slot below a count.
	count := func(f reuseFrame) *EnvOut {
		var sc Scratch
		env, err := sc.Environment(nil, f.cfg, f.pos, f.types, f.list, f.box)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	before, after := count(frames[1]), count(frames[2])
	shrunk := 0
	for i := range before.Count {
		if after.Count[i] < before.Count[i] {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("the expansion shrank no section")
	}
	co := count(frames[3])
	declined := false
	for i := 0; i < co.Nloc && !declined; i++ {
		declined = co.Count[i*2] > 0 && co.R[i*co.Stride*4] == 0 || co.Count[i*2+1] > 0 && co.R[(i*co.Stride+co.Fmt.SelOff[1])*4] == 0
	}
	if !declined {
		t.Fatal("no coincident neighbor below a count")
	}
	checkReuse(t, frames)
}

func FuzzEnvironmentReuse(f *testing.F) {
	f.Add(int64(1), []byte{opNew, 39, 38, opJitter, 0, 0, opExpand, 255, 0, opCoincident, 0, 0})
	f.Add(int64(2), []byte{opNew, 0, 0, opNew, 47, 62, opNew, 0, 0})
	f.Add(int64(3), []byte{opNew, 20, 8, opExpand, 10, 0, opExpand, 200, 0, opJitter, 0, 0, opNew, 20, 8})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		checkReuse(t, reuseSequence(t, seed, script))
	})
}

// The blocked products — every block into its own partial force buffer and
// virial, summed in block order — against the baseline operators, with the
// network gradient poisoned beyond Count: nothing there may be read.
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
	clean := make([]float64, n*env.Stride*4)
	poisoned := make([]float64, len(clean))
	poisoned32 := make([]float32, len(clean))
	skin := 0
	for i := 0; i < n; i++ {
		for tj := range testCfg.Sel {
			lo, hi := env.Fmt.SelOff[tj], env.Fmt.SelOff[tj+1]
			for k := lo; k < hi; k++ {
				for c := 0; c < 4; c++ {
					x := (i*env.Stride+k)*4 + c
					if k-lo < int(env.Count[i*len(testCfg.Sel)+tj]) {
						v := float64(float32(rng.NormFloat64()))
						clean[x], poisoned[x], poisoned32[x] = v, v, float32(v)
					} else {
						poisoned[x], poisoned32[x] = math.NaN(), float32(math.NaN())
					}
				}
				if k-lo >= int(env.Count[i*len(testCfg.Sel)+tj]) && env.Fmt.Idx[i*env.Stride+k] >= 0 {
					skin++
				}
			}
		}
	}
	if skin == 0 {
		t.Fatal("no skin entry beyond a count: the poison tests nothing the old loops did not skip")
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

	var rows int64
	for _, c := range env.Count {
		rows += int64(c)
	}
	if slots != rows {
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
