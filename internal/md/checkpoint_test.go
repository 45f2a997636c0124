package md

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"testing"
)

// validCheckpoint is a two-atom snapshot LoadCheckpoint accepts.
func validCheckpoint() Checkpoint {
	return Checkpoint{
		Step:       7,
		Pos:        []float64{1, 2, 3, 4, 5, 6},
		Vel:        []float64{0.1, -0.2, 0.3, 0, 0, -0.5},
		Types:      []int{0, 1},
		MassByType: []float64{15.999, 1.008},
		BoxL:       [3]float64{10, 11, 12},
	}
}

func encodeCheckpoint(t testing.TB, cp Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A checkpoint whose state no simulation could continue from is an error
// at load time, not an index-out-of-range or a NaN later on.
func TestLoadCheckpointRejectsInconsistentState(t *testing.T) {
	sys, step, err := LoadCheckpoint(bytes.NewReader(encodeCheckpoint(t, validCheckpoint())))
	if err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if step != 7 || sys.N() != 2 || !(sys.KineticEnergy() > 0) {
		t.Fatalf("valid checkpoint restored as step %d, %d atoms, KE %g", step, sys.N(), sys.KineticEnergy())
	}

	cases := []struct {
		name string
		edit func(cp *Checkpoint)
	}{
		{"type beyond masses, negative box", func(cp *Checkpoint) {
			cp.Pos, cp.Vel, cp.Types = []float64{1, 2, 3}, []float64{0, 0, 0}, []int{5}
			cp.MassByType, cp.BoxL = []float64{1}, [3]float64{-10, 10, 10}
		}},
		{"type beyond masses", func(cp *Checkpoint) { cp.Types[1] = 2 }},
		{"negative type", func(cp *Checkpoint) { cp.Types[0] = -1 }},
		{"no masses", func(cp *Checkpoint) { cp.MassByType = nil }},
		{"zero mass", func(cp *Checkpoint) { cp.MassByType[1] = 0 }},
		{"negative mass", func(cp *Checkpoint) { cp.MassByType[0] = -1 }},
		{"NaN mass", func(cp *Checkpoint) { cp.MassByType[0] = math.NaN() }},
		{"infinite mass", func(cp *Checkpoint) { cp.MassByType[1] = math.Inf(1) }},
		{"NaN coordinate", func(cp *Checkpoint) { cp.Pos[4] = math.NaN() }},
		{"infinite coordinate", func(cp *Checkpoint) { cp.Pos[0] = math.Inf(-1) }},
		{"NaN velocity", func(cp *Checkpoint) { cp.Vel[2] = math.NaN() }},
		{"infinite velocity", func(cp *Checkpoint) { cp.Vel[5] = math.Inf(1) }},
		{"negative box edge", func(cp *Checkpoint) { cp.BoxL[0] = -10 }},
		{"zero box edge", func(cp *Checkpoint) { cp.BoxL[1] = 0 }},
		{"NaN box edge", func(cp *Checkpoint) { cp.BoxL[2] = math.NaN() }},
		{"infinite box edge", func(cp *Checkpoint) { cp.BoxL[2] = math.Inf(1) }},
		{"short velocities", func(cp *Checkpoint) { cp.Vel = cp.Vel[:3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := validCheckpoint()
			tc.edit(&cp)
			if _, _, err := LoadCheckpoint(bytes.NewReader(encodeCheckpoint(t, cp))); err == nil {
				t.Fatalf("accepted %+v", cp)
			}
		})
	}
}

// Arbitrary bytes through LoadCheckpoint never panic, and a checkpoint it
// accepts saves and loads again to the same state, bit for bit.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(f, validCheckpoint()))
	bad := validCheckpoint()
	bad.Types[1] = 5
	f.Add(encodeCheckpoint(f, bad))
	f.Add(encodeCheckpoint(f, Checkpoint{BoxL: [3]float64{1, 1, 1}}))
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sys, step, err := LoadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := (&Sim{Sys: sys, step: step}).SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		again, step2, err := LoadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("re-saved checkpoint rejected: %v", err)
		}
		sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		if step2 != step || !slices.Equal(again.Types, sys.Types) ||
			!slices.EqualFunc(again.Pos, sys.Pos, sameBits) || !slices.EqualFunc(again.Vel, sys.Vel, sameBits) ||
			!slices.EqualFunc(again.MassByType, sys.MassByType, sameBits) ||
			!slices.EqualFunc(again.Box.L[:], sys.Box.L[:], sameBits) {
			t.Fatalf("state changed across save/load: %+v step %d, then %+v step %d", sys, step, again, step2)
		}
	})
}
