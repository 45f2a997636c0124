package neighbor

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomConfig(rng *rand.Rand, n int, box *Box, ntypes int) ([]float64, []int) {
	pos := make([]float64, 3*n)
	types := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			pos[3*i+k] = rng.Float64() * box.L[k]
		}
		types[i] = rng.Intn(ntypes)
	}
	return pos, types
}

// reference builds a neighbor list by brute force for validation.
func reference(spec Spec, pos []float64, types []int, nloc int, box *Box) [][]Entry {
	nall := len(pos) / 3
	rc2 := spec.RcutBuild() * spec.RcutBuild()
	out := make([][]Entry, nloc)
	for i := 0; i < nloc; i++ {
		for j := 0; j < nall; j++ {
			if i == j {
				continue
			}
			d := displacement(pos, i, j, box)
			r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
			if r2 < rc2 {
				out[i] = append(out[i], Entry{types[j], math.Sqrt(r2), j})
			}
		}
	}
	return out
}

func sameNeighborSets(t *testing.T, got [][]Entry, want [][]Entry) {
	t.Helper()
	for i := range want {
		g := map[int]bool{}
		for _, e := range got[i] {
			g[e.Index] = true
		}
		w := map[int]bool{}
		for _, e := range want[i] {
			w[e.Index] = true
		}
		if len(g) != len(w) {
			t.Fatalf("atom %d: %d neighbors, want %d", i, len(g), len(w))
		}
		for j := range w {
			if !g[j] {
				t.Fatalf("atom %d: missing neighbor %d", i, j)
			}
		}
	}
}

func TestCellListMatchesBruteForcePeriodic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := &Box{L: [3]float64{20, 22, 24}}
	spec := Spec{Rcut: 2.5, Skin: 0.5, Sel: []int{64, 64}}
	pos, types := randomConfig(rng, 400, box, 2)
	l, err := Build(spec, pos, types, 400, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighborSets(t, l.Entries, reference(spec, pos, types, 400, box))
}

func TestCellListMatchesBruteForceOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := &Box{L: [3]float64{18, 18, 18}}
	spec := Spec{Rcut: 2.0, Skin: 0.5, Sel: []int{64}}
	pos, types := randomConfig(rng, 300, box, 1)
	// Open mode: nil box, only first 200 atoms are "local".
	l, err := Build(spec, pos, types, 200, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighborSets(t, l.Entries, reference(spec, pos, types, 200, nil))
}

func TestBuildRejectsSmallBox(t *testing.T) {
	box := &Box{L: [3]float64{5, 20, 20}}
	spec := Spec{Rcut: 3, Skin: 0.5, Sel: []int{8}}
	pos := make([]float64, 30)
	types := make([]int, 10)
	if _, err := Build(spec, pos, types, 10, box, 1); err == nil {
		t.Fatal("expected minimum-image violation error")
	}
}

// A non-finite coordinate used to give its atom zero neighbors, and a NaN
// or +Inf box edge an axis without periodic images, with no error. Build
// refuses both, naming the first bad atom (ghosts included) or the axis.
func TestBuildRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := &Box{L: [3]float64{12, 12, 12}}
	spec := Spec{Rcut: 3, Skin: 0.5, Sel: []int{32}}
	pos, types := randomConfig(rng, 40, box, 1)
	for _, c := range []struct {
		name string
		set  map[int]float64 // coordinate index -> value
		box  *Box
		want string
	}{
		{"NaN position", map[int]float64{3*7 + 1: math.NaN()}, box, "atom 7 "},
		{"+Inf position", map[int]float64{0: math.Inf(1)}, box, "atom 0 "},
		{"-Inf ghost position", map[int]float64{3*35 + 2: math.Inf(-1)}, nil, "atom 35 "},
		{"first of two", map[int]float64{3 * 20: math.NaN(), 3*12 + 2: math.Inf(1)}, box, "atom 12 "},
		{"NaN box", nil, &Box{L: [3]float64{12, math.NaN(), 12}}, "box edge 1 "},
		{"+Inf box", nil, &Box{L: [3]float64{12, 12, math.Inf(1)}}, "box edge 2 "},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]float64(nil), pos...)
			for x, v := range c.set {
				bad[x] = v
			}
			_, err := Build(spec, bad, types, 30, c.box, 2)
			if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one wrapping ErrNonFinite and naming %q", err, c.want)
			}
		})
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	cases := []struct {
		typ   int
		dist  float64
		index int
	}{
		{0, 0, 0},
		{1, 2.345678, 42},
		{MaxType, MaxDist, MaxIndex},
		{3, 99.999, 99998},
	}
	for _, c := range cases {
		k, err := Encode(c.typ, c.dist, c.index)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c, err)
		}
		typ, dist, index := Decode(k)
		if typ != c.typ || index != c.index {
			t.Fatalf("Decode mismatch: got (%d, %d) want (%d, %d)", typ, index, c.typ, c.index)
		}
		if math.Abs(dist-c.dist) > 1.0/distScale {
			t.Fatalf("distance quantization error %g", dist-c.dist)
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	if _, err := Encode(MaxType+1, 1, 1); err == nil {
		t.Fatal("type overflow not caught")
	}
	if _, err := Encode(1, 150, 1); err == nil {
		t.Fatal("distance overflow not caught")
	}
	if _, err := Encode(1, 1, MaxIndex+1); err == nil {
		t.Fatal("index overflow not caught")
	}
	if _, err := Encode(-1, 1, 1); err == nil {
		t.Fatal("negative type not caught")
	}
}

// A non-finite distance compares false with both range bounds; it must
// still be refused, not converted to an integer (implementation-defined).
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Encode(1, d, 1); err == nil {
			t.Fatalf("distance %g not caught", d)
		}
	}
	var fm Formatter
	l := &List{Nloc: 1, Entries: [][]Entry{{{Type: 0, Dist: math.NaN(), Index: 1}}}}
	if _, err := fm.Format(Spec{Rcut: 4, Sel: []int{2}}, l); err == nil {
		t.Fatal("Format accepted a NaN distance")
	}
}

// Property (Sec. 5.2.2): sorting compressed keys orders records by
// (type, distance, index) exactly as a struct sort would.
func TestCompressedSortOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		entries := make([]Entry, n)
		keys := make([]uint64, n)
		for i := range entries {
			entries[i] = Entry{
				Type:  rng.Intn(4),
				Dist:  rng.Float64() * 10,
				Index: rng.Intn(1000),
			}
			k, err := Encode(entries[i].Type, entries[i].Dist, entries[i].Index)
			if err != nil {
				return false
			}
			keys[i] = k
		}
		// Sort keys; verify the decoded sequence is ordered by
		// (type, quantized distance, index).
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if keys[j] < keys[i] {
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
		}
		for i := 1; i < n; i++ {
			t0, d0, j0 := Decode(keys[i-1])
			t1, d1, j1 := Decode(keys[i])
			if t0 > t1 {
				return false
			}
			if t0 == t1 && d0 > d1 {
				return false
			}
			if t0 == t1 && d0 == d1 && j0 > j1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := &Box{L: [3]float64{16, 16, 16}}
	spec := Spec{Rcut: 3.0, Skin: 1.0, Sel: []int{20, 30}}
	pos, types := randomConfig(rng, 200, box, 2)
	l, err := Build(spec, pos, types, 200, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fm Formatter
	f, err := fm.Format(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stride != 50 {
		t.Fatalf("stride = %d, want 50", f.Stride)
	}
	for i := 0; i < f.Nloc; i++ {
		row := f.Idx[i*f.Stride : (i+1)*f.Stride]
		for t0 := 0; t0 < 2; t0++ {
			sec := row[f.SelOff[t0]:f.SelOff[t0+1]]
			// Within a section: filled slots first, then -1 padding,
			// types all match, distances non-decreasing.
			pad := false
			var prev float64 = -1
			for _, j := range sec {
				if j < 0 {
					pad = true
					continue
				}
				if pad {
					t.Fatalf("atom %d type %d: index after padding", i, t0)
				}
				if types[j] != t0 {
					t.Fatalf("atom %d: slot type %d holds atom of type %d", i, t0, types[j])
				}
				d := displacement(pos, i, int(j), box)
				r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
				if r < prev-1e-7 {
					t.Fatalf("atom %d type %d: distances not sorted (%g after %g)", i, t0, r, prev)
				}
				prev = r
			}
		}
	}
}

// Optimized formatting must produce exactly the same table as the baseline
// struct sort.
func TestFormatMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := &Box{L: [3]float64{15, 15, 15}}
	spec := Spec{Rcut: 3.0, Skin: 0.5, Sel: []int{25, 25, 25}}
	pos, types := randomConfig(rng, 250, box, 3)
	l, err := Build(spec, pos, types, 250, box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fm Formatter
	opt, err := fm.Format(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	base, err := FormatBaseline(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Idx) != len(base.Idx) {
		t.Fatal("size mismatch")
	}
	for i := range opt.Idx {
		if opt.Idx[i] != base.Idx[i] {
			t.Fatalf("Idx[%d]: optimized %d, baseline %d", i, opt.Idx[i], base.Idx[i])
		}
	}
	if opt.Overflow != base.Overflow {
		t.Fatalf("overflow mismatch: %d vs %d", opt.Overflow, base.Overflow)
	}
}

// When a type section overflows, the nearest neighbors must be kept
// (Sec. 5.2.1).
func TestFormatOverflowKeepsNearest(t *testing.T) {
	// 6 neighbors in a line, capacity 3.
	pos := []float64{
		0, 0, 0,
		1, 0, 0,
		2, 0, 0,
		3, 0, 0,
		4, 0, 0,
		4.5, 0, 0,
		5, 0, 0,
	}
	types := make([]int, 7)
	spec := Spec{Rcut: 6, Skin: 0, Sel: []int{3}}
	l, err := Build(spec, pos, types, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fm Formatter
	f, err := fm.Format(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	if f.Overflow != 3 {
		t.Fatalf("overflow = %d, want 3", f.Overflow)
	}
	want := []int32{1, 2, 3}
	for s, j := range f.Idx[:3] {
		if j != want[s] {
			t.Fatalf("slot %d = %d, want %d (nearest first)", s, j, want[s])
		}
	}
}

func TestTypeOfSlot(t *testing.T) {
	f := &Formatted{Sel: []int{3, 5, 2}, SelOff: []int{0, 3, 8, 10}}
	wants := []int{0, 0, 0, 1, 1, 1, 1, 1, 2, 2}
	for s, w := range wants {
		if got := f.TypeOfSlot(s); got != w {
			t.Fatalf("TypeOfSlot(%d) = %d, want %d", s, got, w)
		}
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker(2.0)
	pos := []float64{0, 0, 0, 5, 5, 5}
	if !tr.NeedsRebuild(pos) {
		t.Fatal("fresh tracker must need rebuild")
	}
	tr.Record(pos)
	if tr.NeedsRebuild(pos) {
		t.Fatal("unmoved atoms must not need rebuild")
	}
	pos[0] += 0.9 // less than skin/2
	if tr.NeedsRebuild(pos) {
		t.Fatal("movement below skin/2 must not trigger rebuild")
	}
	pos[0] += 0.2 // now 1.1 > skin/2
	if !tr.NeedsRebuild(pos) {
		t.Fatal("movement beyond skin/2 must trigger rebuild")
	}
	tr.Record(pos)
	tr.Invalidate()
	if !tr.NeedsRebuild(pos) {
		t.Fatal("Invalidate must force rebuild")
	}
}

func TestBoxHelpers(t *testing.T) {
	b := &Box{L: [3]float64{10, 10, 10}}
	if b.Volume() != 1000 {
		t.Fatalf("volume = %g", b.Volume())
	}
	d := [3]float64{9, -9, 4}
	b.MinImage(&d)
	if d[0] != -1 || d[1] != 1 || d[2] != 4 {
		t.Fatalf("MinImage = %v", d)
	}
	p := []float64{-0.5, 10.5, 3}
	b.Wrap(p)
	if p[0] != 9.5 || p[1] != 0.5 || p[2] != 3 {
		t.Fatalf("Wrap = %v", p)
	}
}
