package neighbor

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// keptByKey is the reference format of section t of one row: the
// section's neighbors sorted by key, the first sel kept, where the key
// comes after two exact splits, neighbors on the center first and those
// past rcut last. The kept neighbors inside rcut are the nearest
// min(inside, sel) by key, which is what Sec. 5.2.1 asks of the format;
// the ones past it carry no environment row. dropped counts the rest. The
// splits matter only within one key quantum (1e-8 Å) of rcut or of the
// center, where a plain key sort could put a neighbor past the cutoff
// before one inside it, or a neighbor at 1e-11 Å before a coincident one.
func keptByKey(nbrs []int32, dist []float64, types []int32, t int32, sel int, rcut float64) (kept []entry, dropped int) {
	for k, j := range nbrs {
		if types[j] == t {
			kept = append(kept, entry{dist[k], j, t})
		}
	}
	class := func(e entry) int {
		switch {
		case e.r == 0 && e.r < rcut:
			return 0
		case e.r < rcut:
			return 1
		}
		return 2
	}
	slices.SortFunc(kept, func(a, b entry) int {
		return cmp.Or(cmp.Compare(class(a), class(b)), cmp.Compare(key(a.r, a.j), key(b.r, b.j)))
	})
	if len(kept) > sel {
		return kept[:sel], len(kept) - sel
	}
	return kept, 0
}

// rowsOf is the environment row count of a section whose kept distances
// are r in table order: up to its last neighbor inside rcut and not on
// the center (descriptor.sectionRows' rule).
func rowsOf(r []float64, rcut float64) int {
	for k := len(r) - 1; k >= 0; k-- {
		if r[k] < rcut && r[k] != 0 {
			return k + 1
		}
	}
	return 0
}

// checkPartition formats one row through FormatRow and holds it to the
// keyed reference: every section keeps as many neighbors, the same set
// inside the cutoff, and gets as many environment rows; the row drops as
// many; the distances left in dist are the kept neighbors'; and a section
// that kept every neighbor inside the cutoff lists those first, coincident
// ones leading, each run in index order. It returns the table row and its
// distances for order-independence checks.
func checkPartition(t *testing.T, spec Spec, nbrs []int32, dist []float64, types []int32) ([]int32, []float64) {
	t.Helper()
	l := &List{Nloc: 1, Entries: [][]int32{nbrs}, Types: types}
	var fm Formatter
	out := fm.Begin(spec, l)
	d := slices.Clone(dist)
	dropped, err := out.FormatRow(&fm.ws, 0, nbrs, d, types)
	if err != nil {
		t.Fatal(err)
	}
	at, want := 0, 0
	for typ, sel := range spec.Sel {
		sec := out.Section(0, typ)
		r := d[at : at+len(sec)]
		at += len(sec)
		ref, drop := keptByKey(nbrs, dist, types, int32(typ), sel, spec.Rcut)
		want += drop
		if len(sec) != len(ref) {
			t.Fatalf("type %d keeps %d, reference %d", typ, len(sec), len(ref))
		}
		var got, exp []int32
		for k, j := range sec {
			if x := dist[slices.Index(nbrs, j)]; math.Float64bits(x) != math.Float64bits(r[k]) {
				t.Fatalf("type %d slot %d: neighbor %d left distance %g, its own is %g", typ, k, j, r[k], x)
			}
			if r[k] < spec.Rcut {
				got = append(got, j)
			}
			if ref[k].r < spec.Rcut {
				exp = append(exp, ref[k].j)
			}
		}
		slices.Sort(got)
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			t.Fatalf("type %d keeps %v inside the cutoff, reference %v", typ, got, exp)
		}
		refR := make([]float64, len(ref))
		for k, e := range ref {
			refR[k] = e.r
		}
		if g, w := rowsOf(r, spec.Rcut), rowsOf(refR, spec.Rcut); g != w {
			t.Fatalf("type %d: %d environment rows, reference %d", typ, g, w)
		}
		if len(got) < sel {
			for k := 1; k < len(got); k++ {
				if a, b := r[k-1], r[k]; (a == 0) == (b == 0) && sec[k-1] >= sec[k] || a != 0 && b == 0 {
					t.Fatalf("type %d: inside the cutoff %v at %v, want coincident first, then index order", typ, sec[:len(got)], r[:len(got)])
				}
			}
		}
	}
	if dropped != want {
		t.Fatalf("dropped %d, reference %d", dropped, want)
	}
	return slices.Clone(out.Idx), d[:at]
}

// Atoms move toward atom 0 between rebuilds, on the list built before they
// moved, until its sections hold more neighbors inside the cutoff than sel:
// at every step every row keeps the keyed sort's nearest sel inside the
// cutoff, drops as many and gets as many environment rows, from any
// arrival order.
func TestFormatOverflowBetweenRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	box := &Box{L: [3]float64{14, 14, 14}}
	spec := Spec{Rcut: 3, Skin: 1.5, Sel: []int{0, 0}}
	pos, types := randomConfig(rng, 220, box, 2)
	l, err := Build(spec, pos, types, len(types), box, 1)
	if err != nil {
		t.Fatal(err)
	}
	inside := func(pos []float64, i, typ int) int {
		n := 0
		for _, j := range l.Entries[i] {
			d := Displacement(pos, i, int(j), box)
			if int(l.Types[j]) == typ && math.Sqrt(d[0]*d[0]+d[1]*d[1]+d[2]*d[2]) < spec.Rcut {
				n++
			}
		}
		return n
	}
	for typ := range spec.Sel {
		for i := range l.Entries {
			spec.Sel[typ] = max(spec.Sel[typ], inside(pos, i, typ))
		}
	}
	overflowed := false
	for step := 0; step <= 10 && !overflowed; step++ {
		moved := slices.Clone(pos)
		for _, j := range l.Entries[0] {
			d := Displacement(pos, 0, int(j), box)
			for k := range d {
				moved[3*int(j)+k] = pos[k] + d[k]*(1-0.04*float64(step))
			}
		}
		for typ := range spec.Sel {
			overflowed = overflowed || inside(moved, 0, typ) > spec.Sel[typ]
		}
		for i, row := range l.Entries {
			dist := make([]float64, len(row))
			for k, j := range row {
				d := Displacement(moved, i, int(j), box)
				dist[k] = math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			}
			idx, r := checkPartition(t, spec, row, dist, l.Types)
			perm := rng.Perm(len(row))
			prow, pdist := make([]int32, len(row)), make([]float64, len(row))
			for k, p := range perm {
				prow[k], pdist[k] = row[p], dist[p]
			}
			if pidx, pr := checkPartition(t, spec, prow, pdist, l.Types); !slices.Equal(idx, pidx) || !slices.Equal(r, pr) {
				t.Fatalf("step %d atom %d: a shuffled row formats to %v, Build's to %v", step, i, pidx, idx)
			}
		}
	}
	if !overflowed {
		t.Fatalf("premise: no section of atom 0 held more than %v neighbors inside the cutoff", spec.Sel)
	}
}

// FuzzFormatPartition formats arbitrary rows — lengths, types, distances
// at, around and on both sides of the cutoff, coincident neighbors, ties
// below the key's 1e-8 Å, Sel from 0 up — in Build's (type, index) order
// and shuffled, each against the keyed reference.
func FuzzFormatPartition(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), uint8(6), uint8(9), 3.0, []byte{0, 1, 2, 3})
	f.Add(int64(2), uint8(200), uint8(1), uint8(50), uint8(0), 4.0, []byte{})
	f.Add(int64(3), uint8(12), uint8(3), uint8(0), uint8(2), 0.5, []byte{7, 7, 7, 7, 7, 7})
	f.Add(int64(4), uint8(90), uint8(2), uint8(20), uint8(40), 6.0, []byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, seed int64, n, ntypes, sel0, sel1 uint8, rcut float64, special []byte) {
		if !(rcut > 0 && rcut < 100) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		nt := 1 + int(ntypes%3)
		spec := Spec{Rcut: rcut, Sel: []int{int(sel0), int(sel1), int(sel0 ^ sel1)}[:nt]}
		nall := 2*int(n) + 1
		types := make([]int32, nall)
		for j := range types {
			types[j] = int32(rng.Intn(nt))
		}
		// n distinct neighbors, never atom 0 (the center).
		row := make([]int32, 0, n)
		for _, j := range rng.Perm(nall - 1)[:n] {
			row = append(row, int32(j+1))
		}
		slices.SortFunc(row, func(a, b int32) int {
			return cmp.Or(cmp.Compare(types[a], types[b]), cmp.Compare(a, b))
		})
		dist := make([]float64, n)
		for k := range dist {
			dist[k] = 2 * rcut * rng.Float64()
			if k < len(special) {
				switch c := special[k]; c % 8 {
				case 0:
					dist[k] = 0
				case 1:
					dist[k] = rcut
				case 2:
					dist[k] = math.Nextafter(rcut, 0)
				case 3:
					dist[k] = math.Nextafter(rcut, 200)
				case 4: // a key tie with the previous neighbor
					if k > 0 {
						dist[k] = dist[k-1] + float64(c)*1e-12
					}
				case 5:
					dist[k] = float64(c) / 255 * rcut
				}
			}
		}
		idx, r := checkPartition(t, spec, row, dist, types)
		perm := rng.Perm(int(n))
		prow, pdist := make([]int32, n), make([]float64, n)
		for k, p := range perm {
			prow[k], pdist[k] = row[p], dist[p]
		}
		if pidx, pr := checkPartition(t, spec, prow, pdist, types); !slices.Equal(idx, pidx) || !slices.Equal(r, pr) {
			t.Fatalf("a shuffled row formats to %v, the ordered row to %v", pidx, idx)
		}
	})
}
