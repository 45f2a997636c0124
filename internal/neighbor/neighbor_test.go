package neighbor

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
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

// entry is one brute-force neighbor: its distance, index and type.
type entry struct {
	r    float64
	j, t int32
}

// entryOrder orders entries by type, then by key: the order of an
// overflowing section, and the decimal key's wherever that key exists.
func entryOrder(a, b entry) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	return cmp.Compare(key(a.r, a.j), key(b.r, b.j))
}

// indexOrder orders entries by type, then by index: Build's row order.
func indexOrder(a, b entry) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	return cmp.Compare(a.j, b.j)
}

// reference builds a neighbor list by brute force for validation.
func reference(spec Spec, pos []float64, types []int, nloc int, box *Box) [][]entry {
	nall := len(pos) / 3
	rc2 := spec.RcutBuild() * spec.RcutBuild()
	out := make([][]entry, nloc)
	for i := 0; i < nloc; i++ {
		for j := 0; j < nall; j++ {
			if i == j {
				continue
			}
			d := Displacement(pos, i, j, box)
			r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
			if r2 < rc2 {
				out[i] = append(out[i], entry{math.Sqrt(r2), int32(j), int32(types[j])})
			}
		}
	}
	return out
}

// decimalKey is the paper's key (Sec. 5.2.2), type·1e15 + ⌊r·1e8⌋·1e5 +
// index: the reference the binary key must order like. ok is false
// outside the 19 decimal digits it packs.
func decimalKey(t int32, r float64, j int32) (k uint64, ok bool) {
	if t < 0 || t > 9999 || !(r >= 0 && r <= 99.99999999) || j < 0 || j > 99_999 {
		return 0, false
	}
	return uint64(t)*1_000_000_000_000_000 + uint64(math.Floor(r*1e8))*100_000 + uint64(j), true
}

func sameNeighborSets(t *testing.T, got [][]int32, want [][]entry) {
	t.Helper()
	for i := range want {
		g := map[int32]bool{}
		for _, j := range got[i] {
			g[j] = true
		}
		w := map[int32]bool{}
		for _, e := range want[i] {
			w[e.j] = true
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

// formatAt is the per-step format of l at pos: every row's distances
// refreshed and its sections partitioned at the cutoff through FormatRow.
func formatAt(t *testing.T, spec Spec, l *List, pos []float64, box *Box) *Formatted {
	t.Helper()
	var fm Formatter
	out := fm.Begin(spec, l)
	for i, nbrs := range l.Entries[:l.Nloc] {
		dist := make([]float64, len(nbrs))
		for k, j := range nbrs {
			d := Displacement(pos, i, int(j), box)
			dist[k] = math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
		}
		dropped, err := out.FormatRow(&fm.ws, i, nbrs, dist, l.Types)
		if err != nil {
			t.Fatal(err)
		}
		out.Overflow += dropped
	}
	return out
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

// The binary key holds the decimal key's quantized distance and index
// unchanged, across both keys' ranges.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, c := range []entry{
		{0, 0, 0},
		{2.345678, 42, 1},
		{85.8993459, 99_999, 9999},
		{1e-8, 99_998, 3},
	} {
		dk, ok := decimalKey(c.t, c.r, c.j)
		if !ok {
			t.Fatalf("%+v outside the decimal key", c)
		}
		k := key(c.r, c.j)
		if k>>indexBits != dk%1_000_000_000_000_000/100_000 || k&indexMask != dk%100_000 {
			t.Fatalf("%+v: binary key holds (%d, %d), decimal key %d", c, k>>indexBits, k&indexMask, dk)
		}
	}
}

// Property (Sec. 5.2.2): ordering records by (type, key) is ordering them
// by the paper's decimal key.
func TestCompressedSortOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		entries := make([]entry, n)
		for i := range entries {
			entries[i] = entry{rng.Float64() * 10, int32(rng.Intn(1000)), int32(rng.Intn(4))}
		}
		byKey := slices.Clone(entries)
		slices.SortStableFunc(byKey, func(a, b entry) int { return entryOrder(a, b) })
		slices.SortStableFunc(entries, func(a, b entry) int {
			ka, _ := decimalKey(a.t, a.r, a.j)
			kb, _ := decimalKey(b.t, b.r, b.j)
			return cmp.Compare(ka, kb)
		})
		return slices.Equal(byKey, entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzKeyOrder compares any two records inside the decimal key's ranges
// (type <= 9999, index <= 99,999, and r < 85.9 Å, where the binary key
// stops resolving distance): (type, key) orders them as the decimal key
// does.
func FuzzKeyOrder(f *testing.F) {
	f.Add(uint16(0), 1.0, uint32(5), uint16(0), 1.0, uint32(6))
	f.Add(uint16(1), 0.5, uint32(99_999), uint16(0), 85.8, uint32(0))
	f.Add(uint16(9999), 3.000000009, uint32(7), uint16(9999), 3.00000001, uint32(3))
	f.Fuzz(func(t *testing.T, ta uint16, ra float64, ja uint32, tb uint16, rb float64, jb uint32) {
		fold := func(r float64) float64 {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0
			}
			return math.Mod(math.Abs(r), 85.8993459)
		}
		a := entry{fold(ra), int32(ja % 100_000), int32(ta % 10_000)}
		b := entry{fold(rb), int32(jb % 100_000), int32(tb % 10_000)}
		ka, okA := decimalKey(a.t, a.r, a.j)
		kb, okB := decimalKey(b.t, b.r, b.j)
		if !okA || !okB {
			t.Fatalf("%+v, %+v: outside the decimal key", a, b)
		}
		if got, want := entryOrder(a, b), cmp.Compare(ka, kb); got != want {
			t.Fatalf("%+v vs %+v: binary key orders %d, decimal key %d", a, b, got, want)
		}
	})
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
	dealt, err := fm.Format(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	dealt = &Formatted{Nloc: dealt.Nloc, Sel: dealt.Sel, Idx: slices.Clone(dealt.Idx), SecOff: slices.Clone(dealt.SecOff)}
	stepped := formatAt(t, spec, l, pos, box)
	for i := 0; i < stepped.Nloc; i++ {
		for t0 := 0; t0 < 2; t0++ {
			// Within a section: at most Sel[t] neighbors, types all match;
			// with distances, the neighbors inside the cutoff first, each
			// run in ascending index; without, ascending index throughout.
			sec, plain := stepped.Section(i, t0), dealt.Section(i, t0)
			if len(sec) > spec.Sel[t0] || len(plain) != len(sec) {
				t.Fatalf("atom %d type %d: %d and %d neighbors, sel %d", i, t0, len(sec), len(plain), spec.Sel[t0])
			}
			if !slices.IsSorted(plain) {
				t.Fatalf("atom %d type %d: dealt section %v not in index order", i, t0, plain)
			}
			inside := true
			for k, j := range sec {
				if types[j] != t0 || int(l.Types[plain[k]]) != t0 {
					t.Fatalf("atom %d: slot type %d holds atom of type %d", i, t0, types[j])
				}
				d := Displacement(pos, i, int(j), box)
				in := math.Sqrt(d[0]*d[0]+d[1]*d[1]+d[2]*d[2]) < spec.Rcut
				if in && !inside {
					t.Fatalf("atom %d type %d: neighbor %d inside the cutoff after one past it", i, t0, j)
				}
				if k > 0 && in == inside && sec[k-1] >= j {
					t.Fatalf("atom %d type %d: %d after %d in one run", i, t0, j, sec[k-1])
				}
				inside = in
			}
		}
	}
}

// Where no section overflows, the optimized formats keep exactly the
// baseline struct sort's sets: Format deals each baseline section in index
// order, the per-step format puts its neighbors inside the cutoff first,
// each run in index order, and both have the baseline's section bounds and
// Overflow.
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
	stepped := formatAt(t, spec, l, pos, box)
	base, err := FormatBaseline(spec, l, pos, box)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Formatted{opt, stepped} {
		if len(f.Idx) != len(base.Idx) || !slices.Equal(f.SecOff, base.SecOff) {
			t.Fatal("size mismatch")
		}
		if f.Overflow != base.Overflow {
			t.Fatalf("overflow mismatch: %d vs %d", f.Overflow, base.Overflow)
		}
	}
	for i := 0; i < opt.Nloc; i++ {
		for t0 := range spec.Sel {
			byIndex := slices.Sorted(slices.Values(base.Section(i, t0)))
			if !slices.Equal(opt.Section(i, t0), byIndex) {
				t.Fatalf("atom %d type %d: dealt %v, baseline by index %v", i, t0, opt.Section(i, t0), byIndex)
			}
			var in, past []int32
			for _, j := range byIndex {
				d := Displacement(pos, i, int(j), box)
				if math.Sqrt(d[0]*d[0]+d[1]*d[1]+d[2]*d[2]) < spec.Rcut {
					in = append(in, j)
				} else {
					past = append(past, j)
				}
			}
			if want := append(in, past...); !slices.Equal(stepped.Section(i, t0), want) {
				t.Fatalf("atom %d type %d: per-step %v, baseline partitioned %v", i, t0, stepped.Section(i, t0), want)
			}
		}
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
	f := formatAt(t, spec, l, pos, nil)
	if f.Overflow != 3 {
		t.Fatalf("overflow = %d, want 3", f.Overflow)
	}
	want := []int32{1, 2, 3}
	if len(f.Section(0, 0)) != len(want) {
		t.Fatalf("section %v, want %v", f.Section(0, 0), want)
	}
	for s, j := range f.Section(0, 0) {
		if j != want[s] {
			t.Fatalf("slot %d = %d, want %d (nearest first)", s, j, want[s])
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
