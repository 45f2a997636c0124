package domain

import (
	"fmt"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/md"
	"deepmd-go/internal/mpi"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/units"
)

// Options configures a domain-decomposed MD run.
type Options struct {
	// Ranks is the number of simulated MPI ranks (goroutines).
	Ranks int
	// Grid is the process grid; zero values select BestGrid.
	Grid [3]int
	// Dt is the time step in ps.
	Dt float64
	// Steps is the number of MD steps.
	Steps int
	// Spec is the neighbor requirement (cutoff + skin = ghost width).
	Spec neighbor.Spec
	// RebuildEvery is the migration/border cadence (paper: 50).
	RebuildEvery int
	// ThermoEvery is the reduction cadence (paper: 20).
	ThermoEvery int
	// UseIallreduce switches the thermo reduction to the non-blocking
	// collective (Sec. 5.4); results are then consumed one sample late,
	// mirroring the paper's pipelining.
	UseIallreduce bool
	// GatherForces collects final per-atom forces by global id on rank 0
	// (used by verification tests; costs one gather).
	GatherForces bool
	// Workers is the per-rank goroutine count for neighbor-list
	// construction (on a real machine this is the node's core budget per
	// MPI rank). Zero defaults from the potential's own budget when it
	// reports one (md.WorkerHinter, i.e. a shared core.Engine); <= 1
	// builds serially.
	Workers int
}

// Stats is the result of a parallel run. Everything is gathered onto
// rank 0 with ordinary messages rather than written through shared
// memory, so the identical SPMD body runs on both transports; on a
// multi-process run only rank 0's Stats is populated.
type Stats struct {
	// Thermo holds the globally reduced samples (rank 0's view).
	Thermo []md.Thermo
	// AtomsPerRank and GhostsPerRank are measured after the last rebuild
	// (the quantities of Table 4).
	AtomsPerRank  []int
	GhostsPerRank []int
	// PEPerRank and KEPerRank are each rank's final local potential
	// energy (last force evaluation) and kinetic energy (after the final
	// half-kick) — the per-rank quantities the cross-transport
	// differential holds bit-identical.
	PEPerRank []float64
	KEPerRank []float64
	// OverlapPerRank is the measured comm/compute overlap fraction of the
	// per-step exchange: 1 - (time blocked in Wait)/(exchange wall time).
	OverlapPerRank []float64
	// ForceByGID and PosByGID are gathered when Options.GatherForces.
	ForceByGID map[int64][3]float64
	PosByGID   map[int64][3]float64
	// Messages and Bytes are the communication totals of the MD loop
	// summed over ranks (codec-exact payload bytes, snapshotted before
	// the stats gather itself). WireBytes adds the per-message framing
	// the TCP transport writes: Bytes + mpi.FrameOverhead×Messages.
	Messages, Bytes int64
	WireBytes       int64
	// LoopTime is the MD loop wall time ("MD loop time" of Sec. 6.3).
	LoopTime time.Duration
}

// resolveGrid selects and validates the process grid for the options.
func resolveGrid(opt Options, box neighbor.Box) ([3]int, error) {
	grid := opt.Grid
	if grid[0] == 0 || grid[1] == 0 || grid[2] == 0 {
		grid = BestGrid(opt.Ranks, box.L)
	}
	if grid[0]*grid[1]*grid[2] != opt.Ranks {
		return grid, fmt.Errorf("domain: grid %v does not match %d ranks", grid, opt.Ranks)
	}
	if err := validateGrid(grid, box.L, opt.Spec.RcutBuild()); err != nil {
		return grid, err
	}
	return grid, nil
}

// Run executes a domain-decomposed simulation of the given full system on
// the in-process transport: it makes a world of opt.Ranks goroutine ranks
// and calls RunOn on every one. Every rank receives the complete initial
// system (the replicated-setup strategy of Sec. 7.3) and keeps only the
// atoms it owns. newPot is called once per rank: return a fresh
// single-goroutine evaluator per call, or the same goroutine-safe
// potential — a core.Engine, whose evaluator pool serves the ranks'
// concurrent force calls — every time.
//
// Budgeting contract for a shared engine: its per-evaluation Workers
// applies to EVERY rank's concurrent force call (and, via the RunOn
// worker hint, to its neighbor builds), so an engine serving R ranks
// should be opened with Workers ≈ machine budget / R and
// MaxConcurrency >= R — exactly what cmd/dpmd does. Opening with the full
// machine budget and then running many ranks oversubscribes the cores
// R-fold.
func Run(sys *md.System, newPot func() md.Potential, opt Options) (*Stats, error) {
	world := mpi.NewWorld(max(1, opt.Ranks))
	var stats *Stats
	var runErr error
	func() {
		// A rank error becomes a panic so the world aborts (unblocking
		// the other ranks) and is converted back to an error here.
		defer func() {
			if p := recover(); p != nil {
				runErr = fmt.Errorf("domain: %v", p)
			}
		}()
		world.Run(func(c *mpi.Comm) {
			st, err := RunOn(c, sys, newPot(), opt)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				stats = st
			}
		})
	}()
	if runErr != nil {
		return nil, runErr
	}
	return stats, nil
}

// RunOn executes the SPMD body on one rank's communicator: one OS process
// per rank over the TCP transport (the cmd/dpmd worker mode), or one rank
// of an in-process world (Run). Every rank must call it with the same full
// system and options. opt.Workers, when unset, defaults from the
// potential's own budget when it reports one (md.WorkerHinter, i.e. a
// core.Engine). The returned Stats is fully populated on rank 0 only —
// other ranks get their LoopTime and nothing else, exactly as a real MPI
// program would.
func RunOn(c *mpi.Comm, sys *md.System, pot md.Potential, opt Options) (*Stats, error) {
	opt.Ranks = c.Size()
	if opt.RebuildEvery <= 0 {
		opt.RebuildEvery = 50
	}
	if opt.ThermoEvery <= 0 {
		opt.ThermoEvery = 20
	}
	if opt.Workers <= 0 {
		if wh, ok := pot.(md.WorkerHinter); ok {
			opt.Workers = wh.EvalWorkers()
		}
	}
	grid, err := resolveGrid(opt, sys.Box)
	if err != nil {
		return nil, err
	}
	stats := &Stats{}
	start := time.Now()
	if err := runRank(c, sys, pot, opt, grid, stats); err != nil {
		return nil, err
	}
	stats.LoopTime = time.Since(start)
	return stats, nil
}

// statVec indices for the per-rank summary gathered onto rank 0.
const (
	svNloc = iota
	svGhosts
	svMsgs
	svBytes
	svWaitNs
	svWindowNs
	svPE
	svKE
	svLen
)

// runRank is the per-rank SPMD body. Only rank 0 writes stats; every
// cross-rank quantity travels as a message, so the body is transport-
// agnostic (goroutine ranks share the stats pointer, process ranks each
// hold their own).
func runRank(c *mpi.Comm, full *md.System, pot md.Potential, opt Options, grid [3]int, stats *Stats) error {
	coord := coordOf(c.Rank(), grid)
	lo, hi := subBox(coord, grid, full.Box.L)
	rs := &rankState{
		comm:  c,
		grid:  grid,
		coord: coord,
		lo:    lo,
		hi:    hi,
		gbox:  full.Box,
		cut:   opt.Spec.RcutBuild(),
	}

	// Replicated setup: select owned atoms from the full system.
	for i := 0; i < full.N(); i++ {
		p := [3]float64{full.Pos[3*i], full.Pos[3*i+1], full.Pos[3*i+2]}
		full.Box.Wrap(p[:])
		if ownerOf(p, grid, full.Box.L) != c.Rank() {
			continue
		}
		rs.pos = append(rs.pos, p[0], p[1], p[2])
		rs.vel = append(rs.vel, full.Vel[3*i:3*i+3]...)
		rs.typ = append(rs.typ, full.Types[i])
		rs.gid = append(rs.gid, int64(i))
	}
	rs.nloc = len(rs.typ)

	var list *neighbor.List
	var res core.Result
	var pending *mpi.Request
	var pendingStep int

	rebuild := func() error {
		// Wrap, migrate, exchange borders, rebuild the local list.
		for i := 0; i < rs.nloc; i++ {
			rs.gbox.Wrap(rs.pos[3*i : 3*i+3])
		}
		rs.migrate()
		rs.borders()
		l, err := neighbor.Build(opt.Spec, rs.pos, rs.typ, rs.nloc, nil, opt.Workers)
		if err != nil {
			return err
		}
		list = l
		return nil
	}
	compute := func() error {
		if err := pot.Compute(rs.pos, rs.typ, rs.nloc, list, nil, &res); err != nil {
			return err
		}
		rs.reverse(res.Force)
		return nil
	}

	record := func(step int, g []float64) {
		if c.Rank() != 0 {
			return
		}
		n := g[4]
		vol := rs.gbox.Volume()
		tK := 0.0
		if n > 1 {
			tK = 2 * g[0] / ((3*n - 3) * units.Boltzmann)
		}
		nkt := n * units.Boltzmann * tK
		stats.Thermo = append(stats.Thermo, md.Thermo{
			Step:        step,
			Kinetic:     g[0],
			Potential:   g[1],
			Temperature: tK,
			Pressure:    (nkt + g[2]/3) / vol * units.PressureEVA3ToBar,
			BoxZ:        rs.gbox.L[2],
			StressZZ:    (nkt/3 + g[3]) / vol * units.PressureEVA3ToBar,
		})
	}
	kinetic := func() float64 {
		var ke float64
		for i := 0; i < rs.nloc; i++ {
			m := full.MassByType[rs.typ[i]]
			ke += 0.5 * m * (rs.vel[3*i]*rs.vel[3*i] + rs.vel[3*i+1]*rs.vel[3*i+1] + rs.vel[3*i+2]*rs.vel[3*i+2])
		}
		return ke * units.KineticToEV
	}
	sample := func(step int) {
		// Local contributions: KE, PE, virial trace, W_zz, atom count.
		local := []float64{kinetic(), res.Energy, res.Virial[0] + res.Virial[4] + res.Virial[8], res.Virial[8], float64(rs.nloc)}
		if opt.UseIallreduce {
			// Consume the previous pending reduction first (one sample
			// of pipeline latency, as in Sec. 5.4).
			if pending != nil {
				record(pendingStep, pending.Wait())
			}
			pending = c.Iallreduce(local)
			pendingStep = step
		} else {
			record(step, c.Allreduce(tagThermo, local))
		}
	}

	if err := rebuild(); err != nil {
		return err
	}
	if err := compute(); err != nil {
		return err
	}

	for step := 1; step <= opt.Steps; step++ {
		// Half kick + drift on locals.
		for i := 0; i < rs.nloc; i++ {
			im := units.ForceToAccel / full.MassByType[rs.typ[i]]
			for a := 0; a < 3; a++ {
				rs.vel[3*i+a] += 0.5 * opt.Dt * res.Force[3*i+a] * im
				rs.pos[3*i+a] += opt.Dt * rs.vel[3*i+a]
			}
		}
		if step%opt.RebuildEvery == 0 {
			if err := rebuild(); err != nil {
				return err
			}
		} else {
			rs.forward()
		}
		if err := compute(); err != nil {
			return err
		}
		for i := 0; i < rs.nloc; i++ {
			im := units.ForceToAccel / full.MassByType[rs.typ[i]]
			for a := 0; a < 3; a++ {
				rs.vel[3*i+a] += 0.5 * opt.Dt * res.Force[3*i+a] * im
			}
		}
		if step%opt.ThermoEvery == 0 {
			sample(step)
		}
	}
	if pending != nil {
		// Drain the pipelined reduction so the last sample is recorded.
		record(pendingStep, pending.Wait())
	}

	// Per-rank summary, gathered with ordinary messages. The traffic
	// counters are snapshotted here — the quiescent point after the MD
	// loop — so the gather below does not count itself.
	vec := make([]float64, svLen)
	vec[svNloc] = float64(rs.nloc)
	vec[svGhosts] = float64(rs.ghostCount())
	vec[svMsgs] = float64(c.SentMessages())
	vec[svBytes] = float64(c.SentBytes())
	vec[svWaitNs] = float64(rs.commWait.Nanoseconds())
	vec[svWindowNs] = float64(rs.commWindow.Nanoseconds())
	vec[svPE] = res.Energy
	vec[svKE] = kinetic()
	if c.Rank() == 0 {
		p := c.Size()
		stats.AtomsPerRank = make([]int, p)
		stats.GhostsPerRank = make([]int, p)
		stats.PEPerRank = make([]float64, p)
		stats.KEPerRank = make([]float64, p)
		stats.OverlapPerRank = make([]float64, p)
		fill := func(r int, v []float64) {
			stats.AtomsPerRank[r] = int(v[svNloc])
			stats.GhostsPerRank[r] = int(v[svGhosts])
			stats.Messages += int64(v[svMsgs])
			stats.Bytes += int64(v[svBytes])
			if v[svWindowNs] > 0 {
				stats.OverlapPerRank[r] = 1 - v[svWaitNs]/v[svWindowNs]
			}
			stats.PEPerRank[r] = v[svPE]
			stats.KEPerRank[r] = v[svKE]
		}
		fill(0, vec)
		for src := 1; src < p; src++ {
			fill(src, c.Recv(src, tagStats).([]float64))
		}
		stats.WireBytes = stats.Bytes + mpi.FrameOverhead*stats.Messages
	} else {
		c.Send(0, tagStats, vec)
	}

	if opt.GatherForces {
		if c.Rank() == 0 {
			stats.ForceByGID = make(map[int64][3]float64)
			stats.PosByGID = make(map[int64][3]float64)
			add := func(gid []int64, force, pos []float64) {
				for k, id := range gid {
					stats.ForceByGID[id] = [3]float64{force[3*k], force[3*k+1], force[3*k+2]}
					stats.PosByGID[id] = [3]float64{pos[3*k], pos[3*k+1], pos[3*k+2]}
				}
			}
			add(rs.gid[:rs.nloc], res.Force[:3*rs.nloc], rs.pos[:3*rs.nloc])
			for src := 1; src < c.Size(); src++ {
				gid := c.Recv(src, tagGather).([]int64)
				force := c.Recv(src, tagGather+1).([]float64)
				pos := c.Recv(src, tagGather+2).([]float64)
				add(gid, force, pos)
			}
		} else {
			c.Send(0, tagGather, rs.gid[:rs.nloc])
			c.Send(0, tagGather+1, res.Force[:3*rs.nloc])
			c.Send(0, tagGather+2, rs.pos[:3*rs.nloc])
		}
	}
	return nil
}
