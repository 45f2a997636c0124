package md

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/refpot"
	"deepmd-go/internal/units"
)

// ljSystem builds a perturbed FCC argon-like crystal with an LJ potential.
func ljSystem(seed int64) (*System, *refpot.LennardJones, neighbor.Spec) {
	cell := lattice.FCC(3, 3, 3, 5.26) // argon lattice constant
	lattice.Perturb(cell, 0.05, seed)
	sys := &System{
		Pos:        cell.Pos,
		Types:      cell.Types,
		MassByType: []float64{39.948},
		Box:        cell.Box,
	}
	lj := refpot.NewLennardJones(0.0103, 3.4, 6.5)
	spec := neighbor.Spec{Rcut: 6.5, Skin: 1.0, Sel: []int{64}}
	return sys, lj, spec
}

func TestInitVelocitiesHitsTemperature(t *testing.T) {
	sys, _, _ := ljSystem(1)
	sys.InitVelocities(120, 3)
	if got := sys.Temperature(); math.Abs(got-120) > 1e-9 {
		t.Fatalf("T = %g, want exactly 120 after rescale", got)
	}
	// No net drift.
	var p [3]float64
	for i := 0; i < sys.N(); i++ {
		for a := 0; a < 3; a++ {
			p[a] += sys.Mass(i) * sys.Vel[3*i+a]
		}
	}
	for a := 0; a < 3; a++ {
		if math.Abs(p[a]) > 1e-9 {
			t.Fatalf("net momentum %v", p)
		}
	}
}

// NVE energy conservation: the core integrator test. With dt = 2 fs and an
// LJ crystal, total energy drift over 400 steps must be a tiny fraction of
// the kinetic energy scale.
func TestNVEEnergyConservation(t *testing.T) {
	sys, lj, spec := ljSystem(2)
	sys.InitVelocities(60, 4)
	sim, err := NewSim(sys, lj, Options{
		Dt:           0.002,
		Spec:         spec,
		RebuildEvery: 20,
		ThermoEvery:  10,
		SafetyCheck:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e0pot, err := sim.PotentialEnergy()
	if err != nil {
		t.Fatal(err)
	}
	e0 := e0pot + sys.KineticEnergy()
	if err := sim.Run(400); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Result().Energy + sys.KineticEnergy()
	drift := math.Abs(e1 - e0)
	scale := sys.KineticEnergy() + 1e-12
	if drift > 0.01*scale {
		t.Fatalf("energy drift %g eV over 400 steps (KE scale %g)", drift, scale)
	}
}

func TestBerendsenReachesTarget(t *testing.T) {
	sys, lj, spec := ljSystem(5)
	sys.InitVelocities(20, 6)
	sim, err := NewSim(sys, lj, Options{
		Dt:           0.002,
		Spec:         spec,
		RebuildEvery: 20,
		ThermoEvery:  20,
		Thermostat:   &Berendsen{TargetK: 80, TauPs: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(300); err != nil {
		t.Fatal(err)
	}
	if got := sys.Temperature(); math.Abs(got-80) > 20 {
		t.Fatalf("T = %g after thermostatting to 80", got)
	}
}

func TestRescaleThermostat(t *testing.T) {
	sys, lj, spec := ljSystem(7)
	sys.InitVelocities(200, 8)
	sim, err := NewSim(sys, lj, Options{
		Dt:           0.002,
		Spec:         spec,
		RebuildEvery: 25,
		Thermostat:   &Rescale{TargetK: 50, Every: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := sys.Temperature(); math.Abs(got-50) > 1e-6 {
		t.Fatalf("T = %g, rescale should pin at 50", got)
	}
}

func TestThermoLogCadence(t *testing.T) {
	sys, lj, spec := ljSystem(9)
	sys.InitVelocities(40, 10)
	sim, err := NewSim(sys, lj, Options{Dt: 0.002, Spec: spec, ThermoEvery: 20, RebuildEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(sim.Log) != 5 {
		t.Fatalf("thermo samples = %d, want 5 (every 20 of 100)", len(sim.Log))
	}
	for i, th := range sim.Log {
		if th.Step != 20*(i+1) {
			t.Fatalf("sample %d at step %d", i, th.Step)
		}
		if th.Temperature <= 0 || math.IsNaN(th.Pressure) {
			t.Fatalf("bad thermo sample %+v", th)
		}
	}
	// LoopTime sums the wall time of every Run.
	first := sim.LoopTime
	if first <= 0 {
		t.Fatalf("LoopTime %v after 100 steps", first)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	if sim.LoopTime <= first {
		t.Fatalf("LoopTime %v did not grow past %v over a second Run", sim.LoopTime, first)
	}
}

func TestDeformStretchesBox(t *testing.T) {
	sys, lj, spec := ljSystem(11)
	sys.InitVelocities(30, 12)
	z0 := sys.Box.L[2]
	sim, err := NewSim(sys, lj, Options{
		Dt:           0.002,
		Spec:         spec,
		RebuildEvery: 10,
		Deform:       &Deform{Axis: 2, RatePerPs: 0.05},
		SafetyCheck:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	want := z0 * math.Pow(1+0.05*0.002, 50)
	if math.Abs(sys.Box.L[2]-want) > 1e-9 {
		t.Fatalf("box z = %g, want %g", sys.Box.L[2], want)
	}
	// Atoms must remain inside (wrapped at rebuilds) and z-scaled.
	for i := 0; i < sys.N(); i++ {
		if sys.Pos[3*i+2] < -1 || sys.Pos[3*i+2] > sys.Box.L[2]+1 {
			t.Fatalf("atom %d escaped: z = %g", i, sys.Pos[3*i+2])
		}
	}
}

func TestSimRejectsBadOptions(t *testing.T) {
	sys, lj, spec := ljSystem(13)
	if _, err := NewSim(sys, lj, Options{Dt: 0, Spec: spec}); err == nil {
		t.Fatal("dt = 0 accepted")
	}
}

func TestWriteXYZ(t *testing.T) {
	sys, _, _ := ljSystem(15)
	var sb strings.Builder
	if err := WriteXYZ(&sb, sys, []string{"Ar"}, "test"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2+sys.N() {
		t.Fatalf("XYZ lines = %d, want %d", len(lines), 2+sys.N())
	}
	if !strings.HasPrefix(lines[2], "Ar ") {
		t.Fatalf("atom line %q", lines[2])
	}
}

func TestPressureSignOnCompressedCrystal(t *testing.T) {
	// A crystal compressed well below equilibrium must show positive
	// pressure.
	cell := lattice.FCC(3, 3, 3, 4.6) // compressed vs 5.26 equilibrium
	sys := &System{Pos: cell.Pos, Types: cell.Types, MassByType: []float64{39.948}, Box: cell.Box}
	lj := refpot.NewLennardJones(0.0103, 3.4, 6.0)
	spec := neighbor.Spec{Rcut: 6.0, Skin: 0.5, Sel: []int{64}}
	sim, err := NewSim(sys, lj, Options{Dt: 0.001, Spec: spec, ThermoEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	if p := sim.Log[0].Pressure; p <= 0 {
		t.Fatalf("compressed crystal pressure %g bar, want > 0", p)
	}
}

func TestUnitsConsistency(t *testing.T) {
	// 1 amu * (1 A/ps)^2 converted twice should be consistent with
	// ForceToAccel: accelerate 1 amu by 1 eV/A for 1 ps -> v such that
	// KE = work done over distance... sanity-check the constants against
	// each other: KineticToEV * ForceToAccel == 1 (0.5 m v^2 in eV when
	// v = a*t from F = 1 eV/A).
	if math.Abs(units.KineticToEV*units.ForceToAccel-1) > 1e-9 {
		t.Fatalf("unit constants inconsistent: %g", units.KineticToEV*units.ForceToAccel)
	}
}

func TestLangevinSamplesTargetTemperature(t *testing.T) {
	sys, lj, spec := ljSystem(21)
	sys.InitVelocities(10, 22)
	sim, err := NewSim(sys, lj, Options{
		Dt:           0.002,
		Spec:         spec,
		RebuildEvery: 20,
		Thermostat:   &Langevin{TargetK: 90, TauPs: 0.02, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(150); err != nil {
		t.Fatal(err)
	}
	// Average over a window: Langevin fluctuates by design.
	var avg float64
	const window = 50
	for i := 0; i < window; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		avg += sys.Temperature()
	}
	avg /= window
	if math.Abs(avg-90) > 25 {
		t.Fatalf("Langevin average T = %.1f, want ~90", avg)
	}
}

func TestLangevinReproducible(t *testing.T) {
	run := func() float64 {
		sys, lj, spec := ljSystem(23)
		sys.InitVelocities(50, 24)
		sim, err := NewSim(sys, lj, Options{
			Dt: 0.002, Spec: spec, RebuildEvery: 20,
			Thermostat: &Langevin{TargetK: 70, TauPs: 0.05, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(30); err != nil {
			t.Fatal(err)
		}
		return sys.Pos[0]
	}
	if run() != run() {
		t.Fatal("seeded Langevin trajectories differ")
	}
}

func TestCheckpointRestartContinuity(t *testing.T) {
	// One 60-step run must equal a 30-step run + checkpoint + 30 more.
	traj := func() *System {
		sys, lj, spec := ljSystem(25)
		sys.InitVelocities(40, 26)
		sim, err := NewSim(sys, lj, Options{Dt: 0.002, Spec: spec, RebuildEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(60); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	want := traj()

	sys, lj, spec := ljSystem(25)
	sys.InitVelocities(40, 26)
	sim, err := NewSim(sys, lj, Options{Dt: 0.002, Spec: spec, RebuildEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	bb := &bytes.Buffer{}
	if err := sim.SaveCheckpoint(bb); err != nil {
		t.Fatal(err)
	}
	restored, step, err := LoadCheckpoint(bb)
	if err != nil {
		t.Fatal(err)
	}
	if step != 30 {
		t.Fatalf("checkpoint step = %d", step)
	}
	sim2, err := NewSim(restored, lj, Options{Dt: 0.002, Spec: spec, RebuildEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	sim2.ResumeAt(step)
	if err := sim2.Run(30); err != nil {
		t.Fatal(err)
	}
	for i := range want.Pos {
		if math.Abs(want.Pos[i]-restored.Pos[i]) > 1e-9 {
			t.Fatalf("restart diverged at coord %d: %g vs %g", i, want.Pos[i], restored.Pos[i])
		}
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, _, err := LoadCheckpoint(strings.NewReader("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
}
