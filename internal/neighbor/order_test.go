package neighbor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkRows asserts that l is the brute-force list exactly — the same
// neighbors with the types Build was given — with every row strictly in
// (type, index) order.
func checkRows(t *testing.T, l *List, spec Spec, pos []float64, types []int, nloc int, box *Box) {
	t.Helper()
	for j, typ := range types {
		if int(l.Types[j]) != typ {
			t.Fatalf("Types[%d] = %d, want %d", j, l.Types[j], typ)
		}
	}
	want := reference(spec, pos, types, nloc, box)
	for i := range want {
		slices.SortFunc(want[i], indexOrder)
		got := l.Entries[i]
		if len(got) != len(want[i]) {
			t.Fatalf("atom %d: %d neighbors, want %d", i, len(got), len(want[i]))
		}
		for k, e := range want[i] {
			if got[k] != e.j {
				t.Fatalf("atom %d: slot %d holds %d, want %d\ngot  %v\nwant %v", i, k, got[k], e.j, got, want[i])
			}
			if k > 0 && indexOrder(want[i][k-1], e) >= 0 {
				t.Fatalf("atom %d: entries %d and %d out of (type, index) order: %+v, %+v", i, k-1, k, want[i][k-1], e)
			}
		}
	}
}

// Rows come out of Build in (type, index) order and hold exactly the
// brute-force neighbors, bit-identically at every worker count, in all
// three regimes, with ghosts and with types spread over the int32 range.
func TestBuildRowsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	type frame struct {
		name  string
		spec  Spec
		pos   []float64
		types []int
		nloc  int
		box   *Box
	}
	var frames []frame
	add := func(name string, spec Spec, n, nloc, ntypes int, box *Box, periodic bool) {
		pos, types := randomConfig(rng, n, box, ntypes)
		b := box
		if !periodic {
			b = nil
		}
		frames = append(frames, frame{name, spec, pos, types, nloc, b})
	}
	add("periodic-all-pairs", Spec{Rcut: 6, Skin: 1, Sel: []int{64, 64}}, 600, 600, 2, &Box{L: [3]float64{14, 15, 16}}, true)
	add("periodic-cells", Spec{Rcut: 2.5, Skin: 0.5, Sel: []int{64, 64}}, 1800, 1800, 2, &Box{L: [3]float64{22, 20, 24}}, true)
	add("open-ghosts", Spec{Rcut: 2, Skin: 0.5, Sel: []int{64}}, 1500, 1100, 3, &Box{L: [3]float64{18, 18, 18}}, false)
	add("spread-types", Spec{Rcut: 3, Skin: 0.5, Sel: []int{64}}, 300, 300, 2, &Box{L: [3]float64{12, 12, 12}}, true)
	for i := range frames[3].types {
		frames[3].types[i] *= 1 << 30
	}
	for _, f := range frames {
		t.Run(f.name, func(t *testing.T) {
			serial, err := Build(f.spec, f.pos, f.types, f.nloc, f.box, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, serial, f.spec, f.pos, f.types, f.nloc, f.box)
			for _, w := range []int{2, 7} {
				par, err := Build(f.spec, f.pos, f.types, f.nloc, f.box, w)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, serial, par)
			}
		})
	}
}

// Given distances, the formatted table depends on a row's entries, not on
// their order: reversed and shuffled rows give bitwise the same Idx and
// Overflow as the rows Build ordered, on a lattice whose equal distances
// make the index break ties and with sections narrow enough to overflow.
func TestFormatIndependentOfRowOrder(t *testing.T) {
	var pos []float64
	var types []int
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				pos = append(pos, 1.5*float64(x), 1.5*float64(y), 1.5*float64(z))
				types = append(types, (x+y+z)%2)
			}
		}
	}
	box := &Box{L: [3]float64{12, 12, 12}}
	spec := Spec{Rcut: 3.5, Skin: 0.5, Sel: []int{20, 12}}
	l, err := Build(spec, pos, types, len(types), box, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := formatAt(t, spec, l, pos, box)
	wantIdx, wantOverflow := slices.Clone(want.Idx), want.Overflow
	if wantOverflow == 0 {
		t.Fatal("premise: no section overflows")
	}
	rng := rand.New(rand.NewSource(16))
	for _, pm := range []struct {
		name    string
		permute func([]int32)
	}{
		{"sorted", func([]int32) {}},
		{"reversed", slices.Reverse[[]int32]},
		{"shuffled", func(r []int32) { rng.Shuffle(len(r), func(a, b int) { r[a], r[b] = r[b], r[a] }) }},
	} {
		p := &List{Nloc: l.Nloc, Entries: make([][]int32, l.Nloc), Types: l.Types}
		for i, row := range l.Entries {
			p.Entries[i] = slices.Clone(row)
			pm.permute(p.Entries[i])
		}
		got := formatAt(t, spec, p, pos, box)
		if !slices.Equal(got.Idx, wantIdx) || !slices.Equal(got.SecOff, want.SecOff) || got.Overflow != wantOverflow {
			t.Fatalf("%s rows: overflow %d, want %d; tables equal: %v", pm.name, got.Overflow, wantOverflow, slices.Equal(got.Idx, wantIdx))
		}
	}
}

// MinImage is the Round formula d - L*Round(d/L): every nonzero component
// bitwise, and the squared length always, on the rounding boundaries, the
// largest doubles below them, zero, non-finite and far values, and a sweep
// of random displacements.
func TestMinImageMatchesRound(t *testing.T) {
	round := func(b *Box, d [3]float64) [3]float64 {
		for k := range d {
			d[k] -= b.L[k] * math.Round(d[k]/b.L[k])
		}
		return d
	}
	check := func(b *Box, d [3]float64) {
		t.Helper()
		got, want := d, round(b, d)
		b.MinImage(&got)
		for k := range got {
			if want[k] != 0 && math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
				t.Fatalf("L %v, d %v: component %d = %v, Round formula %v", b.L, d, k, got[k], want[k])
			}
		}
		g2 := got[0]*got[0] + got[1]*got[1] + got[2]*got[2]
		w2 := want[0]*want[0] + want[1]*want[1] + want[2]*want[2]
		if math.Float64bits(g2) != math.Float64bits(w2) && !(math.IsNaN(g2) && math.IsNaN(w2)) {
			t.Fatalf("L %v, d %v: d² = %v, Round formula %v", b.L, d, g2, w2)
		}
	}
	qs := []float64{0.5, 1.5, 0.49999999999999994, 1.4999999999999998, 0, math.Inf(1), math.NaN(), 1e300}
	for _, q := range slices.Clone(qs) {
		qs = append(qs, -q)
	}
	for _, l := range []float64{1, 2, 18.6, 0.3, 1e-3} {
		b := &Box{L: [3]float64{l, 3 * l, l}}
		for _, q := range qs {
			check(b, [3]float64{q * l, q, q / l})
			check(b, [3]float64{q, q * 3 * l, math.Nextafter(q*l, 0)})
		}
	}
	rng := rand.New(rand.NewSource(17))
	b := &Box{L: [3]float64{18.6, 9.3, 4.1}}
	for n := 0; n < 100000; n++ {
		var d [3]float64
		for k := range d {
			d[k] = (2*rng.Float64() - 1) * 3 * b.L[k]
		}
		check(b, d)
	}
}

// FuzzBuild drives Build with arbitrary finite positions (folded into a
// few box lengths), boxes, cutoffs, local counts, types and worker counts:
// rows must equal brute force, in (type, index) order, and agree across
// worker counts. Positions are 8 bytes each and every atom's last byte
// picks its type; a type byte of 255 gives a type far from the rest. Up to
// 400 seeded random atoms follow the fuzzed ones, so that more than one
// worker gets rows to claim.
func FuzzBuild(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"), uint16(0), int64(1), 5.0, 11.0, 3.0, 2.0, uint16(3), uint8(2), true)
	f.Add(make([]byte, 24*70), uint16(0), int64(2), 9.0, 9.0, 9.0, 1.0, uint16(40), uint8(3), false)
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"), uint16(350), int64(3), 12.0, 14.0, 16.0, 3.5, uint16(300), uint8(7), true)
	f.Add(make([]byte, 24*10), uint16(390), int64(4), 1.0, 2.0, 3.0, 2.5, uint16(280), uint8(4), false)
	// Boxes of exactly 2·(rc+skin) (lx = ly = lz = 0), where 1/L is inexact
	// (L = 3 and 3.6), with atoms at L/2 and one ulp either side on every
	// axis, at ±L/2 on two axes at once, and at far images up to 2.5·L: the
	// scan's reciprocal fold must decide each component as MinImage does.
	for _, rc := range []float64{1, 1.3} {
		l := 2 * (0.5 + rc)
		h := l / 2
		var atoms [][3]float64
		for _, x := range []float64{h, math.Nextafter(h, 0), math.Nextafter(h, 4), -h, math.Nextafter(-h, 0), math.Nextafter(-h, -4)} {
			atoms = append(atoms, [3]float64{x, 0, 0}, [3]float64{0, x, 0}, [3]float64{0, 0, x}, [3]float64{x, x, 0})
		}
		atoms = append(atoms, [3]float64{0, 0, 0}, [3]float64{2.5 * l, 0, 0}, [3]float64{-2.5*l + h, h, -h}, [3]float64{1.5 * l, -1.5 * l, 0.25})
		data := make([]byte, 24*len(atoms))
		for a, at := range atoms {
			for k, v := range at {
				binary.LittleEndian.PutUint64(data[24*a+8*k:], math.Float64bits(v))
			}
		}
		f.Add(data, uint16(0), int64(5), 0.0, 0.0, 0.0, rc, uint16(len(atoms)), uint8(1), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, extra uint16, seed int64, lx, ly, lz, rc float64, nloc uint16, workers uint8, periodic bool) {
		for _, v := range []float64{lx, ly, lz, rc} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		spec := Spec{Rcut: 0.5 + math.Mod(math.Abs(rc), 4), Sel: []int{8}}
		cut := spec.RcutBuild()
		box := &Box{L: [3]float64{2*cut + math.Mod(math.Abs(lx), 20), 2*cut + math.Mod(math.Abs(ly), 20), 2*cut + math.Mod(math.Abs(lz), 20)}}
		nf := min(len(data)/24, 100)
		n := nf + int(extra)%401
		pos := make([]float64, 3*n)
		types := make([]int, n)
		rng := rand.New(rand.NewSource(seed))
		for a := range pos {
			v := 3 * (2*rng.Float64() - 1) * box.L[a%3]
			if a < 3*nf {
				v = math.Float64frombits(binary.LittleEndian.Uint64(data[8*a:]))
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			pos[a] = math.Mod(v, 3*box.L[a%3])
		}
		for i := range types {
			types[i] = rng.Intn(3)
			if i < nf {
				types[i] = int(data[24*i+23] % 3)
				if data[24*i+23] == 255 {
					types[i] = 1 << 30
				}
			}
		}
		nl := int(nloc) % (n + 1)
		b := box
		if !periodic {
			b = nil
		}
		serial, err := Build(spec, pos, types, nl, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, serial, spec, pos, types, nl, b)
		par, err := Build(spec, pos, types, nl, b, 2+int(workers%7))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, serial, par)
	})
}
