package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainArg as the first argument makes the test binary run dpmd's main
// on the arguments after it, so a test can check an exit status and the
// files a whole run leaves behind.
const runMainArg = "dpmd-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// A box too small for the cutoff is a usage error once the model's
// rcut + skin is known: paper-scale water (rcut 6 + skin 2) does not fit
// twice in the 12.4 A edge of -nx 4. The run exits 2 before -thermo-json
// is created, where it used to panic in rank 0 with an empty file left.
func TestSmallBoxRejectedBeforeOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "thermo.json")
	cmd := exec.Command(os.Args[0], runMainArg, "-system", "water", "-netscale", "paper", "-nx", "4", "-steps", "1", "-thermo-json", out)
	msg, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2; output:\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "ghost width") {
		t.Errorf("output does not name the ghost-width rule:\n%s", msg)
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("-thermo-json file exists after the usage error (stat: %v)", err)
	}
}

// -cpuprofile writes a pprof CPU profile of the step loop: a gzipped
// protocol buffer, non-empty once decompressed.
func TestCPUProfileWritten(t *testing.T) {
	out := filepath.Join(t.TempDir(), "md.prof")
	cmd := exec.Command(os.Args[0], runMainArg, "-system", "water", "-nx", "4", "-steps", "5", "-workers", "1", "-cpuprofile", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dpmd: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("profile is not gzip (%d bytes): %v", len(data), err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("profile body: %d bytes, %v", len(raw), err)
	}
}

// An unwritable -cpuprofile path is a usage error before the run, as an
// unwritable -thermo-json is.
func TestCPUProfileUnwritable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "missing", "md.prof")
	cmd := exec.Command(os.Args[0], runMainArg, "-system", "water", "-nx", "4", "-steps", "5", "-cpuprofile", out)
	msg, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2; output:\n%s", err, msg)
	}
	if strings.Contains(string(msg), "MD loop") {
		t.Fatalf("the run started before the path was checked:\n%s", msg)
	}
}
