package main

import (
	"math"
	"strings"
	"testing"
)

// Every numeric flag that sizes a run is checked before anything is built:
// a negative cell count used to panic in the lattice builders, a negative
// temperature to give NaN velocities, zero steps to print +Inf ms/step and
// a negative nanocrystal box to build no atoms.
func TestRunFlagsCheck(t *testing.T) {
	ok := runFlags{system: "water", nx: 4, steps: 10, grains: 4, ranks: 1, boxL: 40, tempK: 330}
	if err := ok.check(); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*runFlags)
		flag string // "" when the flags must pass
	}{
		{"nx=-1", func(r *runFlags) { r.nx = -1 }, "-nx"},
		{"nx=0", func(r *runFlags) { r.nx = 0 }, "-nx"},
		{"copper nx=-1", func(r *runFlags) { r.system, r.nx = "copper", -1 }, "-nx"},
		{"nanocu ignores nx", func(r *runFlags) { r.system, r.nx = "nanocu", -1 }, ""},
		{"steps=0", func(r *runFlags) { r.steps = 0 }, "-steps"},
		{"steps=-3", func(r *runFlags) { r.steps = -3 }, "-steps"},
		{"ranks=0", func(r *runFlags) { r.ranks = 0 }, "-ranks"},
		{"ranks=-2", func(r *runFlags) { r.ranks = -2 }, "-ranks"},
		{"temp=-5", func(r *runFlags) { r.tempK = -5 }, "-temp"},
		{"temp=NaN", func(r *runFlags) { r.tempK = math.NaN() }, "-temp"},
		{"temp=+Inf", func(r *runFlags) { r.tempK = math.Inf(1) }, "-temp"},
		{"temp=0", func(r *runFlags) { r.tempK = 0 }, ""},
		{"nanocu boxl=-3", func(r *runFlags) { r.system, r.boxL = "nanocu", -3 }, "-boxl"},
		{"nanocu boxl=0", func(r *runFlags) { r.system, r.boxL = "nanocu", 0 }, "-boxl"},
		{"nanocu boxl=NaN", func(r *runFlags) { r.system, r.boxL = "nanocu", math.NaN() }, "-boxl"},
		{"nanocu grains=0", func(r *runFlags) { r.system, r.grains = "nanocu", 0 }, "-grains"},
		{"water ignores boxl", func(r *runFlags) { r.boxL = -3 }, ""},
	} {
		r := ok
		c.edit(&r)
		err := r.check()
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.flag != "" && !strings.HasPrefix(err.Error(), c.flag+" "):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.flag)
		}
	}
}
