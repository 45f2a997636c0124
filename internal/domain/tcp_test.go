package domain

import (
	"math"
	"net"
	"sync"
	"testing"

	"deepmd-go/internal/core"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/md"
	"deepmd-go/internal/mpi"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// waterSystem builds the same tiny-model liquid-water setup cmd/dpmd
// uses: nx^3 molecules, O/H masses, a TinyConfig(2) Deep Potential with
// the 4+1 A ghost width.
func waterSystem(t *testing.T, nx int, seed int64) (*md.System, *core.Model, neighbor.Spec) {
	t.Helper()
	cell := lattice.Water(nx, nx, nx, lattice.WaterSpacing, seed)
	sys := &md.System{
		Pos:        cell.Pos,
		Types:      cell.Types,
		MassByType: []float64{units.MassO, units.MassH},
		Box:        cell.Box,
		Vel:        make([]float64, 3*cell.N()),
	}
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = sys.MassByType
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	cfg.Seed = seed
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, model, neighbor.Spec{Rcut: cfg.Rcut, Skin: cfg.Skin, Sel: cfg.Sel}
}

// runTCPRanks executes opt on `ranks` TCP worlds over real loopback
// sockets — each rank its own TCPWorld, exactly the per-process state the
// launcher spawns — and returns rank 0's Stats.
func runTCPRanks(t *testing.T, ranks int, sys *md.System, newPot func() md.Potential, opt Options) *Stats {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go mpi.ServeRendezvous(ln, ranks)
	coord := ln.Addr().String()

	var root *Stats
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := mpi.DialTCP(mpi.TCPConfig{Rank: rank, Size: ranks, Coordinator: coord, Listen: "127.0.0.1:0"})
			if err != nil {
				errs[rank] = err
				return
			}
			defer w.Close()
			stats, err := RunOn(w.Comm(), sys, newPot(), opt)
			if err != nil {
				errs[rank] = err
				return
			}
			if rank == 0 {
				root = stats
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return root
}

// The acceptance differential: per-rank energies and per-atom forces on
// the water decomposition must be bit-identical between the in-process
// world and the TCP transport at every rank count.
func TestTCPMatchesInProcessWater(t *testing.T) {
	sys, model, spec := waterSystem(t, 4, 21)
	sys.InitVelocities(330, 22)
	newPot := func() md.Potential { return core.NewEvaluator[float64](model) }

	for _, ranks := range []int{1, 2, 4, 8} {
		opt := Options{
			Ranks: ranks, Dt: 0.0005, Steps: 6, Spec: spec,
			RebuildEvery: 3, ThermoEvery: 2, GatherForces: true,
		}
		want, err := Run(sys, newPot, opt)
		if err != nil {
			t.Fatalf("ranks=%d inproc: %v", ranks, err)
		}
		got := runTCPRanks(t, ranks, sys, newPot, opt)

		if len(got.Thermo) != len(want.Thermo) {
			t.Fatalf("ranks=%d: thermo samples %d vs %d", ranks, len(got.Thermo), len(want.Thermo))
		}
		for i := range want.Thermo {
			if got.Thermo[i] != want.Thermo[i] {
				t.Fatalf("ranks=%d thermo[%d]: tcp %+v inproc %+v", ranks, i, got.Thermo[i], want.Thermo[i])
			}
		}
		for r := 0; r < ranks; r++ {
			if got.PEPerRank[r] != want.PEPerRank[r] || got.KEPerRank[r] != want.KEPerRank[r] {
				t.Fatalf("ranks=%d rank %d: PE/KE tcp (%v, %v) inproc (%v, %v)",
					ranks, r, got.PEPerRank[r], got.KEPerRank[r], want.PEPerRank[r], want.KEPerRank[r])
			}
			if got.AtomsPerRank[r] != want.AtomsPerRank[r] || got.GhostsPerRank[r] != want.GhostsPerRank[r] {
				t.Fatalf("ranks=%d rank %d: atoms/ghosts differ", ranks, r)
			}
		}
		if math.Abs(want.PEPerRank[0]) == 0 && ranks == 1 {
			t.Fatal("degenerate per-rank PE")
		}
		if len(got.ForceByGID) != sys.N() || len(want.ForceByGID) != sys.N() {
			t.Fatalf("ranks=%d: gathered %d/%d atoms, want %d", ranks, len(got.ForceByGID), len(want.ForceByGID), sys.N())
		}
		for gid, fw := range want.ForceByGID {
			if got.ForceByGID[gid] != fw {
				t.Fatalf("ranks=%d atom %d: force tcp %v inproc %v", ranks, gid, got.ForceByGID[gid], fw)
			}
			if got.PosByGID[gid] != want.PosByGID[gid] {
				t.Fatalf("ranks=%d atom %d: pos differs", ranks, gid)
			}
		}
		if got.Messages != want.Messages || got.Bytes != want.Bytes {
			t.Fatalf("ranks=%d: counters tcp (%d msgs, %d bytes) inproc (%d msgs, %d bytes)",
				ranks, got.Messages, got.Bytes, want.Messages, want.Bytes)
		}
		if got.WireBytes != got.Bytes+mpi.FrameOverhead*got.Messages {
			t.Fatalf("ranks=%d: WireBytes %d not Bytes %d + %d x Messages %d",
				ranks, got.WireBytes, got.Bytes, mpi.FrameOverhead, got.Messages)
		}
	}
}

// Regression for the flat 16-byte atomBundle estimate: the counted bytes
// must equal the exact encoded size, reconciled here against what the TCP
// transport actually framed onto the socket.
func TestBundleBytesReconcileOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go mpi.ServeRendezvous(ln, 2)
	coord := ln.Addr().String()

	full := atomBundle{
		Pos: []float64{1, 2, 3, 4.5, 5.5, 6.5},
		Vel: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
		Typ: []int{0, 1},
		Gid: []int64{7, 8},
	}
	border := atomBundle{Pos: []float64{9, 10, 11}, Typ: []int{1}, Gid: []int64{12}}
	wantBytes := int64(16+8*(6+6+2+2)) + int64(16+8*(3+0+1+1)) // 144 + 56

	worlds := make([]*mpi.TCPWorld, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := mpi.DialTCP(mpi.TCPConfig{Rank: rank, Size: 2, Coordinator: coord, Listen: "127.0.0.1:0"})
			if err != nil {
				errs[rank] = err
				return
			}
			worlds[rank] = w
			c := w.Comm()
			if rank == 0 {
				c.Send(1, 1, encodeBundle(full))
				c.Send(1, 2, encodeBundle(border))
			} else {
				got, err := decodeBundle(c.Recv(0, 1).([]byte))
				if err != nil {
					t.Error(err)
					w.Close()
					return
				}
				for i := range full.Pos {
					if got.Pos[i] != full.Pos[i] {
						t.Errorf("pos[%d] %v != %v", i, got.Pos[i], full.Pos[i])
					}
				}
				for i := range full.Vel {
					if got.Vel[i] != full.Vel[i] {
						t.Errorf("vel[%d] mismatch", i)
					}
				}
				for i := range full.Typ {
					if got.Typ[i] != full.Typ[i] || got.Gid[i] != full.Gid[i] {
						t.Errorf("typ/gid[%d] mismatch", i)
					}
				}
				gotB, err := decodeBundle(c.Recv(0, 2).([]byte))
				if err != nil || len(gotB.Vel) != 0 || len(gotB.Pos) != 3 || gotB.Gid[0] != 12 {
					t.Errorf("border bundle mismatch: %+v", gotB)
				}
			}
			w.Close()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}

	w0 := worlds[0]
	if w0.Bytes() != wantBytes {
		t.Errorf("counted %d payload bytes, want exact %d", w0.Bytes(), wantBytes)
	}
	if w0.Messages() != 2 {
		t.Errorf("counted %d messages, want 2", w0.Messages())
	}
	if w0.WireBytes() != wantBytes+2*mpi.FrameOverhead {
		t.Errorf("framed %d bytes, want %d", w0.WireBytes(), wantBytes+2*mpi.FrameOverhead)
	}
}

// Regression for the per-step buffer churn: once the plan is built, the
// forward/reverse exchange must not allocate (the buffers and their boxed
// headers are hoisted into stagePlan).
func TestExchangeZeroAlloc(t *testing.T) {
	sys, newPot, spec := ljFullSystem(31)
	_ = newPot
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		rs := &rankState{
			comm: c, grid: [3]int{1, 1, 1}, coord: [3]int{0, 0, 0},
			lo: [3]float64{0, 0, 0}, hi: sys.Box.L, gbox: sys.Box,
			cut: spec.RcutBuild(),
		}
		for i := 0; i < sys.N(); i++ {
			p := [3]float64{sys.Pos[3*i], sys.Pos[3*i+1], sys.Pos[3*i+2]}
			sys.Box.Wrap(p[:])
			rs.pos = append(rs.pos, p[0], p[1], p[2])
			rs.vel = append(rs.vel, 0, 0, 0)
			rs.typ = append(rs.typ, sys.Types[i])
			rs.gid = append(rs.gid, int64(i))
		}
		rs.nloc = len(rs.typ)
		if err := rs.borders(); err != nil {
			t.Fatal(err)
		}
		if rs.ghostCount() == 0 {
			t.Fatal("setup produced no ghosts; exchange not exercised")
		}
		force := make([]float64, 3*rs.nall())
		for i := range force {
			force[i] = float64(i%7) * 0.25
		}
		rs.forward()
		rs.reverse(force)
		allocs := testing.AllocsPerRun(50, func() {
			rs.forward()
			rs.reverse(force)
		})
		if allocs != 0 {
			t.Errorf("exchange path allocates %.0f times per step, want 0", allocs)
		}
	})
}
