package neighbor

import (
	"math/rand"
	"slices"
	"testing"
)

// Table-driven overflow tests for the Sec. 5.2.1 formatting contract: when
// a type section holds more raw neighbors than its capacity sel[t], the
// *nearest* sel[t] survive (the distance sort "always selects the nearest
// neighbors"), dropped entries are counted in Overflow, and every section
// holds exactly min(count, sel[t]) indices — no padding, sections back to
// back from the row's start. Both the key format and the baseline struct
// sort must agree.
func TestFormatterOverflowTableDriven(t *testing.T) {
	cases := []struct {
		name string
		sel  []int // the paper's selections: water {46, 92}, copper {500}
		nbrs []int // raw neighbor count per type for the one local atom
	}{
		{"water/O-overflow-H-exact", []int{46, 92}, []int{60, 92}},
		{"water/both-overflow", []int{46, 92}, []int{50, 120}},
		{"water/O-exact-H-overflow", []int{46, 92}, []int{46, 93}},
		{"water/underflow-padding", []int{46, 92}, []int{10, 0}},
		{"water/overflow-next-to-underflow", []int{46, 92}, []int{47, 3}},
		{"copper/overflow", []int{500}, []int{560}},
		{"copper/overflow-by-one", []int{500}, []int{501}},
		{"copper/underflow", []int{500}, []int{123}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			spec := Spec{Rcut: 10, Skin: 0, Sel: tc.sel}

			// Build a synthetic raw list: per type, distinct distances in
			// ascending order tagged with unique indices, then globally
			// shuffled so the formatter sees an unsorted row.
			type section struct{ byDist []entry }
			secs := make([]section, len(tc.sel))
			var all []entry
			idx := 1000
			for typ, cnt := range tc.nbrs {
				d := 0.5 + 0.1*rng.Float64()
				for i := 0; i < cnt; i++ {
					d += 0.001 + 0.01*rng.Float64() // strictly increasing
					e := entry{d, int32(idx), int32(typ)}
					idx++
					secs[typ].byDist = append(secs[typ].byDist, e)
					all = append(all, e)
				}
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			pos, list := lineFrame([][]entry{all})

			wantOverflow := 0
			for typ, cnt := range tc.nbrs {
				if cnt > tc.sel[typ] {
					wantOverflow += cnt - tc.sel[typ]
				}
			}

			opt := formatAt(t, spec, list, pos, nil)
			base, err := FormatBaseline(spec, list, pos, nil)
			if err != nil {
				t.Fatal(err)
			}

			for name, f := range map[string]*Formatted{"key": opt, "baseline": base} {
				if want := min(len(all), spec.Stride()); len(f.Idx) != want {
					t.Fatalf("%s: %d slots, want room for %d", name, len(f.Idx), want)
				}
				off := 0
				for typ, sel := range tc.sel {
					if int(f.SecOff[typ]) != off {
						t.Fatalf("%s: SecOff[%d] = %d, want %d", name, typ, f.SecOff[typ], off)
					}
					row := f.Section(0, typ)
					kept := min(tc.nbrs[typ], sel)
					if len(row) != kept {
						t.Fatalf("%s: type %d holds %d, want %d", name, typ, len(row), kept)
					}
					// The kept prefix must be exactly the nearest `kept`
					// neighbors of this type, in ascending distance order.
					for s := 0; s < kept; s++ {
						want := secs[typ].byDist[s].j
						if row[s] != want {
							t.Fatalf("%s: type %d slot %d = %d, want %d (nearest-first)", name, typ, s, row[s], want)
						}
					}
					off += kept
				}
				if f.Overflow != wantOverflow {
					t.Fatalf("%s: Overflow = %d, want %d", name, f.Overflow, wantOverflow)
				}
				// Dropped neighbors must all be farther than every kept one
				// of the same type (re-derived from the slot contents).
				for typ := range tc.sel {
					keptSet := map[int32]bool{}
					for _, v := range f.Section(0, typ) {
						keptSet[v] = true
					}
					var keptMax float64
					var dropMin = -1.0
					for _, e := range secs[typ].byDist {
						if keptSet[e.j] {
							if e.r > keptMax {
								keptMax = e.r
							}
						} else if dropMin < 0 || e.r < dropMin {
							dropMin = e.r
						}
					}
					if dropMin >= 0 && dropMin <= keptMax {
						t.Fatalf("%s: type %d dropped a neighbor at %g while keeping one at %g", name, typ, dropMin, keptMax)
					}
				}
			}
		})
	}
}

// Overflow handling with multiple local atoms: each row is trimmed
// independently within its own room, and Overflow accumulates across rows.
func TestFormatterOverflowMultipleAtoms(t *testing.T) {
	spec := Spec{Rcut: 10, Skin: 0, Sel: []int{3, 2}}
	pos, list := lineFrame([][]entry{
		{{1.0, 11, 0}, {0.5, 12, 0}, {2.0, 13, 0}, {1.5, 14, 0}, {0.7, 15, 1}}, // type 0 overflows by 1
		{{0.9, 21, 1}, {0.8, 22, 1}, {0.7, 23, 1}, {0.6, 24, 1}},               // type 1 overflows by 2
		{{3.0, 31, 0}}, // pure underflow
	})
	f := formatAt(t, spec, list, pos, nil)
	if f.Overflow != 3 {
		t.Fatalf("Overflow = %d, want 3", f.Overflow)
	}
	want := [][][]int32{
		{{12, 11, 14} /* type0: nearest 3 of 4 */, {15}},
		{{} /* no type0 */, {24, 23}},
		{{31}, {}},
	}
	for i, secs := range want {
		for typ, w := range secs {
			if got := f.Section(i, typ); !slices.Equal(got, w) {
				t.Fatalf("atom %d type %d = %v, want %v (full table %v)", i, typ, got, w, f.Idx)
			}
		}
	}
	// Each row has the room of its list row: 5, 4 and 1 slots.
	if len(f.Idx) != 10 || f.SecOff[3] != 5 || f.SecOff[6] != 9 {
		t.Fatalf("rows start at %d, %d, %d of %d slots, want 0, 5, 9 of 10", f.SecOff[0], f.SecOff[3], f.SecOff[6], len(f.Idx))
	}
	// Baseline must agree slot for slot.
	base, err := FormatBaseline(spec, list, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Overflow != f.Overflow {
		t.Fatalf("baseline Overflow = %d, want %d", base.Overflow, f.Overflow)
	}
	if !slices.Equal(base.SecOff, f.SecOff) {
		t.Fatalf("baseline SecOff %v, key format %v", base.SecOff, f.SecOff)
	}
	for i := range want {
		for typ := range spec.Sel {
			if !slices.Equal(base.Section(i, typ), f.Section(i, typ)) {
				t.Fatalf("atom %d type %d: baseline %v, key format %v", i, typ, base.Section(i, typ), f.Section(i, typ))
			}
		}
	}
}

// lineFrame lays out one center atom per row, atom i at (0, 100·i, 0), and
// each of its neighbors e at (e.r, 100·i, 0) with type e.t, so that the
// open-boundary distance is e.r exactly. It returns the positions and the
// list of the rows as given.
func lineFrame(rows [][]entry) ([]float64, *List) {
	nall := len(rows)
	for _, row := range rows {
		for _, e := range row {
			nall = max(nall, int(e.j)+1)
		}
	}
	pos := make([]float64, 3*nall)
	l := &List{Nloc: len(rows), Entries: make([][]int32, len(rows)), Types: make([]int32, nall)}
	for i, row := range rows {
		pos[3*i+1] = 100 * float64(i)
		for _, e := range row {
			pos[3*e.j], pos[3*e.j+1] = e.r, 100*float64(i)
			l.Types[e.j] = e.t
			l.Entries[i] = append(l.Entries[i], e.j)
		}
	}
	return pos, l
}
