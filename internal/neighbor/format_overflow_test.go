package neighbor

import (
	"math/rand"
	"testing"
)

// Table-driven overflow tests for the Sec. 5.2.1 formatting contract: when
// a type section holds more raw neighbors than its capacity sel[t], the
// *nearest* sel[t] survive (the distance sort "always selects the nearest
// neighbors"), dropped entries are counted in Overflow, and every section
// still occupies exactly sel[t] slots of the fixed stride — full sections
// carry no padding, short sections are -1-padded to sel[t]. Both the
// compressed-key Formatter and the baseline struct sort must agree.
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
			stride := spec.Stride()

			// Build a synthetic raw list: per type, distinct distances in
			// ascending order tagged with unique indices, then globally
			// shuffled so the formatter sees an unsorted row.
			type section struct{ byDist []Entry }
			secs := make([]section, len(tc.sel))
			var all []Entry
			idx := 1000
			for typ, cnt := range tc.nbrs {
				d := 0.5 + 0.1*rng.Float64()
				for i := 0; i < cnt; i++ {
					d += 0.001 + 0.01*rng.Float64() // strictly increasing, < MaxDist
					e := Entry{Type: typ, Dist: d, Index: idx}
					idx++
					secs[typ].byDist = append(secs[typ].byDist, e)
					all = append(all, e)
				}
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			list := &List{Nloc: 1, Entries: [][]Entry{all}}

			wantOverflow := 0
			for typ, cnt := range tc.nbrs {
				if cnt > tc.sel[typ] {
					wantOverflow += cnt - tc.sel[typ]
				}
			}

			var fm Formatter
			opt, err := fm.Format(spec, list)
			if err != nil {
				t.Fatal(err)
			}
			base, err := FormatBaseline(spec, list)
			if err != nil {
				t.Fatal(err)
			}

			for name, f := range map[string]*Formatted{"key": opt, "baseline": base} {
				if f.Stride != stride || len(f.Idx) != stride {
					t.Fatalf("%s: stride %d / %d slots, want %d", name, f.Stride, len(f.Idx), stride)
				}
				off := 0
				for typ, sel := range tc.sel {
					if f.SelOff[typ] != off {
						t.Fatalf("%s: SelOff[%d] = %d, want %d", name, typ, f.SelOff[typ], off)
					}
					row := f.Idx[off : off+sel]
					kept := min(tc.nbrs[typ], sel)
					// The kept prefix must be exactly the nearest `kept`
					// neighbors of this type, in ascending distance order.
					for s := 0; s < kept; s++ {
						want := int32(secs[typ].byDist[s].Index)
						if row[s] != want {
							t.Fatalf("%s: type %d slot %d = %d, want %d (nearest-first)", name, typ, s, row[s], want)
						}
					}
					// Padding is exactly sel[t] - kept trailing -1 slots:
					// the section never exceeds nor undershoots its stride.
					for s := kept; s < sel; s++ {
						if row[s] != -1 {
							t.Fatalf("%s: type %d slot %d = %d, want -1 padding", name, typ, s, row[s])
						}
					}
					off += sel
				}
				if f.Overflow != wantOverflow {
					t.Fatalf("%s: Overflow = %d, want %d", name, f.Overflow, wantOverflow)
				}
				// Dropped neighbors must all be farther than every kept one
				// of the same type (re-derived from the slot contents).
				for typ, sel := range tc.sel {
					keptSet := map[int32]bool{}
					for _, v := range f.Idx[f.SelOff[typ] : f.SelOff[typ]+sel] {
						if v >= 0 {
							keptSet[v] = true
						}
					}
					var keptMax float64
					var dropMin = -1.0
					for _, e := range secs[typ].byDist {
						if keptSet[int32(e.Index)] {
							if e.Dist > keptMax {
								keptMax = e.Dist
							}
						} else if dropMin < 0 || e.Dist < dropMin {
							dropMin = e.Dist
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

// Overflow handling with multiple local atoms: each row is trimmed and
// padded independently, and Overflow accumulates across rows.
func TestFormatterOverflowMultipleAtoms(t *testing.T) {
	spec := Spec{Rcut: 10, Skin: 0, Sel: []int{3, 2}}
	rows := [][]Entry{
		{{0, 1.0, 11}, {0, 0.5, 12}, {0, 2.0, 13}, {0, 1.5, 14}, {1, 0.7, 15}}, // type 0 overflows by 1
		{{1, 0.9, 21}, {1, 0.8, 22}, {1, 0.7, 23}, {1, 0.6, 24}},               // type 1 overflows by 2
		{{0, 3.0, 31}}, // pure underflow
	}
	list := &List{Nloc: 3, Entries: rows}
	var fm Formatter
	f, err := fm.Format(spec, list)
	if err != nil {
		t.Fatal(err)
	}
	if f.Overflow != 3 {
		t.Fatalf("Overflow = %d, want 3", f.Overflow)
	}
	want := []int32{
		12, 11, 14 /* type0: nearest 3 of 4 */, 15, -1,
		-1, -1, -1 /* no type0 */, 24, 23,
		31, -1, -1, -1, -1,
	}
	for i, w := range want {
		if f.Idx[i] != w {
			t.Fatalf("Idx[%d] = %d, want %d (full table %v)", i, f.Idx[i], w, f.Idx)
		}
	}
	// Baseline must agree slot for slot.
	base, err := FormatBaseline(spec, list)
	if err != nil {
		t.Fatal(err)
	}
	if base.Overflow != f.Overflow {
		t.Fatalf("baseline Overflow = %d, want %d", base.Overflow, f.Overflow)
	}
	for i := range f.Idx {
		if base.Idx[i] != f.Idx[i] {
			t.Fatalf("baseline Idx[%d] = %d, key format %d", i, base.Idx[i], f.Idx[i])
		}
	}
}
