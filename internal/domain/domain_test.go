package domain

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/md"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/refpot"
)

func TestBestGrid(t *testing.T) {
	cases := []struct {
		p    int
		l    [3]float64
		want [3]int
	}{
		{1, [3]float64{10, 10, 10}, [3]int{1, 1, 1}},
		{8, [3]float64{10, 10, 10}, [3]int{2, 2, 2}},
		{4, [3]float64{40, 10, 10}, [3]int{4, 1, 1}},
		{6, [3]float64{30, 20, 10}, [3]int{3, 2, 1}},
	}
	for _, c := range cases {
		got := BestGrid(c.p, c.l)
		if got != c.want {
			t.Fatalf("BestGrid(%d, %v) = %v, want %v", c.p, c.l, got, c.want)
		}
		if got[0]*got[1]*got[2] != c.p {
			t.Fatalf("grid does not multiply to p")
		}
	}
}

func TestCoordRankRoundtrip(t *testing.T) {
	grid := [3]int{3, 2, 4}
	for r := 0; r < 24; r++ {
		if got := rankOf(coordOf(r, grid), grid); got != r {
			t.Fatalf("roundtrip %d -> %d", r, got)
		}
	}
	// Periodic wrap.
	if rankOf([3]int{-1, 0, 0}, grid) != rankOf([3]int{2, 0, 0}, grid) {
		t.Fatal("negative wrap broken")
	}
}

func TestValidateGridRejects(t *testing.T) {
	if err := validateGrid([3]int{8, 1, 1}, [3]float64{10, 10, 10}, 2.8); err == nil {
		t.Fatal("sub-box smaller than cutoff accepted")
	}
	if err := validateGrid([3]int{1, 1, 1}, [3]float64{4, 10, 10}, 2.8); err == nil {
		t.Fatal("box below 2*cut accepted")
	}
	if err := validateGrid([3]int{2, 2, 2}, [3]float64{12, 12, 12}, 2.8); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

// ljFullSystem builds a randomized LJ crystal.
func ljFullSystem(seed int64) (*md.System, func() md.Potential, neighbor.Spec) {
	cell := lattice.FCC(3, 3, 3, 4.0) // 12 A box
	lattice.Perturb(cell, 0.08, seed)
	sys := &md.System{
		Pos:        cell.Pos,
		Types:      cell.Types,
		MassByType: []float64{39.948},
		Box:        cell.Box,
		Vel:        make([]float64, 3*cell.N()),
	}
	newPot := func() md.Potential { return refpot.NewLennardJones(0.0103, 2.5, 2.5) }
	return sys, newPot, neighbor.Spec{Rcut: 2.5, Skin: 0.3, Sel: []int{64}}
}

// serialForces computes reference forces with the serial path (PBC box).
func serialForces(t *testing.T, sys *md.System, pot md.Potential, spec neighbor.Spec) []float64 {
	t.Helper()
	list, err := neighbor.Build(spec, sys.Pos, sys.Types, sys.N(), &sys.Box, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := pot.Compute(sys.Pos, sys.Types, sys.N(), list, &sys.Box, &res); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), res.Force[:3*sys.N()]...)
}

// The decisive domain test: forces computed with ghosts + reverse
// communication must equal the serial minimum-image forces for every
// decomposition.
func TestParallelForcesMatchSerialLJ(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 8} {
		sys, newPot, spec := ljFullSystem(3)
		want := serialForces(t, sys, newPot(), spec)

		stats, err := Run(sys, newPot, Options{
			Ranks: ranks, Dt: 0.001, Steps: 0, Spec: spec, GatherForces: true,
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(stats.ForceByGID) != sys.N() {
			t.Fatalf("ranks=%d: gathered %d atoms, want %d", ranks, len(stats.ForceByGID), sys.N())
		}
		for gid, f := range stats.ForceByGID {
			for a := 0; a < 3; a++ {
				if d := math.Abs(f[a] - want[3*gid+int64(a)]); d > 1e-10 {
					t.Fatalf("ranks=%d atom %d comp %d: parallel %g serial %g", ranks, gid, a, f[a], want[3*gid+int64(a)])
				}
			}
		}
	}
}

// Same check through the full Deep Potential pipeline: ghost forces from
// the DP force decomposition must be reverse-communicated correctly.
func TestParallelForcesMatchSerialDP(t *testing.T) {
	cfg := core.TinyConfig(2)
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	n := 48
	box := neighbor.Box{L: [3]float64{12, 12, 12}}
	sys := &md.System{
		Pos:        make([]float64, 3*n),
		Vel:        make([]float64, 3*n),
		Types:      make([]int, n),
		MassByType: cfg.Masses,
		Box:        box,
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			sys.Pos[3*i+k] = rng.Float64() * 12
		}
		sys.Types[i] = rng.Intn(2)
	}
	spec := neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
	want := serialForces(t, sys, core.NewEvaluator[float64](model), spec)

	for _, ranks := range []int{2, 4} {
		grid := [3]int{2, ranks / 2, 1} // keep sub-extents above the 5 A ghost width
		stats, err := Run(sys, func() md.Potential { return core.NewEvaluator[float64](model) }, Options{
			Ranks: ranks, Grid: grid, Dt: 0.0005, Steps: 0, Spec: spec, GatherForces: true,
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		var maxd float64
		for gid, f := range stats.ForceByGID {
			for a := 0; a < 3; a++ {
				if d := math.Abs(f[a] - want[3*gid+int64(a)]); d > maxd {
					maxd = d
				}
			}
		}
		if maxd > 1e-9 {
			t.Fatalf("ranks=%d: max force deviation %g", ranks, maxd)
		}
	}
}

// A multi-step parallel run must track the serial trajectory's energies
// (thermo reductions, migration, ghost refresh all exercised).
func TestParallelTrajectoryMatchesSerial(t *testing.T) {
	sysP, newPot, spec := ljFullSystem(5)
	sysP.InitVelocities(40, 7)
	sysS := &md.System{
		Pos:        append([]float64(nil), sysP.Pos...),
		Vel:        append([]float64(nil), sysP.Vel...),
		Types:      sysP.Types,
		MassByType: sysP.MassByType,
		Box:        sysP.Box,
	}

	stats, err := Run(sysP, newPot, Options{
		Ranks: 4, Grid: [3]int{2, 2, 1}, Dt: 0.002, Steps: 60, Spec: spec,
		RebuildEvery: 10, ThermoEvery: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := md.NewSim(sysS, newPot(), md.Options{
		Dt: 0.002, Spec: spec, RebuildEvery: 10, ThermoEvery: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(60); err != nil {
		t.Fatal(err)
	}
	if len(stats.Thermo) != len(sim.Log) {
		t.Fatalf("thermo samples: parallel %d serial %d", len(stats.Thermo), len(sim.Log))
	}
	for i := range sim.Log {
		dp := math.Abs(stats.Thermo[i].Potential - sim.Log[i].Potential)
		dk := math.Abs(stats.Thermo[i].Kinetic - sim.Log[i].Kinetic)
		scale := math.Abs(sim.Log[i].Potential) + 1
		if dp > 1e-8*scale || dk > 1e-8*scale {
			t.Fatalf("sample %d: dPE=%g dKE=%g", i, dp, dk)
		}
	}
	// Atom conservation across migrations.
	total := 0
	for _, n := range stats.AtomsPerRank {
		total += n
	}
	if total != sysS.N() {
		t.Fatalf("atoms after migration = %d, want %d", total, sysS.N())
	}
	// Every rank must have ghosts in a periodic system.
	for r, g := range stats.GhostsPerRank {
		if g <= 0 {
			t.Fatalf("rank %d has no ghosts", r)
		}
	}
}

// Iallreduce must produce the same thermo log as blocking Allreduce.
func TestIallreduceMatchesAllreduce(t *testing.T) {
	run := func(useI bool) []md.Thermo {
		sys, newPot, spec := ljFullSystem(9)
		sys.InitVelocities(30, 11)
		stats, err := Run(sys, newPot, Options{
			Ranks: 4, Grid: [3]int{2, 2, 1}, Dt: 0.002, Steps: 40, Spec: spec,
			RebuildEvery: 10, ThermoEvery: 10, UseIallreduce: useI,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Thermo
	}
	a := run(false)
	b := run(true)
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Step != b[i].Step || math.Abs(a[i].Potential-b[i].Potential) > 1e-12 {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunRejectsTooManyRanks(t *testing.T) {
	sys, newPot, spec := ljFullSystem(13)
	if _, err := Run(sys, newPot, Options{Ranks: 512, Dt: 0.001, Steps: 1, Spec: spec}); err == nil {
		t.Fatal("expected sub-box validation error")
	}
}

func TestRunSurfacesRankErrors(t *testing.T) {
	sys, _, spec := ljFullSystem(15)
	bad := func() md.Potential {
		return refpot.NewSuttonChenCu() // rejects ghost-mode configurations
	}
	if _, err := Run(sys, bad, Options{Ranks: 2, Dt: 0.001, Steps: 1, Spec: spec}); err == nil {
		t.Fatal("expected surfaced rank error")
	}
}

// failingPot fails every force call on one rank with a sentinel error.
type failingPot struct {
	md.Potential
	err error
}

func (p failingPot) Compute(pos []float64, types []int, nloc int, list *neighbor.List, box *neighbor.Box, out *core.Result) error {
	return p.err
}

// A rank's error keeps its type through World.Run and Run: callers can
// match it with errors.Is instead of parsing a message.
func TestRunWrapsRankError(t *testing.T) {
	errSentinel := errors.New("rank potential failed")
	sys, newPot, spec := ljFullSystem(17)
	var made atomic.Int32
	pot := func() md.Potential {
		if made.Add(1) == 2 {
			return failingPot{newPot(), errSentinel}
		}
		return newPot()
	}
	_, err := Run(sys, pot, Options{Ranks: 2, Dt: 0.001, Steps: 1, Spec: spec})
	if !errors.Is(err, errSentinel) {
		t.Fatalf("Run error %v does not wrap the rank's sentinel", err)
	}
}

// Sec. 7.3: replicated local setup + broadcast model staging must beat the
// rank-0-distributes + every-rank-reads baseline.
func TestSetupOptimizationShape(t *testing.T) {
	cfg := core.TinyConfig(1)
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/model.dp"
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	builder := func() *md.System {
		cell := lattice.FCC(6, 6, 6, 4.0)
		return &md.System{Pos: cell.Pos, Types: cell.Types, MassByType: []float64{60}, Box: cell.Box}
	}
	res, err := MeasureSetup(builder, path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineAtoms <= 0 || res.OptimizedAtoms <= 0 || res.BaselineModel <= 0 || res.OptimizedModel <= 0 {
		t.Fatalf("non-positive timings: %+v", res)
	}
	if res.Speedup() <= 0 {
		t.Fatalf("speedup %g", res.Speedup())
	}
}

// The baseline setup ships the built system as an atom bundle (positions
// and types); its receivers decode it bit for bit.
func TestSystemPayloadRoundtrip(t *testing.T) {
	cell := lattice.FCC(2, 2, 2, 3.7)
	got, err := decodeBundle(encodeBundle(atomBundle{Pos: cell.Pos, Typ: cell.Types}))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Pos, cell.Pos) || !slices.Equal(got.Typ, cell.Types) || got.Vel != nil || got.Gid != nil {
		t.Fatalf("setup bundle mismatch: %+v", got)
	}
	if _, err := decodeBundle([]byte{1, 2}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// setupCrashPayload is 64 bytes whose leading u64 word is 2^59+1. The
// retired setup decoder read it as an atom count n and checked the length
// against 32+32n, which wraps to 64 and let makeslice panic.
func setupCrashPayload() []byte {
	raw := make([]byte, 64)
	binary.LittleEndian.PutUint64(raw, 1<<59+1)
	return raw
}

// The setup receivers' decoder returns an error for the 64-byte payload
// whose count word overflows the length check, instead of panicking.
func TestSetupPayloadRejectsOverflowingCount(t *testing.T) {
	if b, err := decodeBundle(setupCrashPayload()); err == nil {
		t.Fatalf("overflowing setup payload accepted: %d positions", len(b.Pos))
	}
}
