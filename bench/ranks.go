package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	deepmd "deepmd-go"
	"deepmd-go/internal/core"
	"deepmd-go/internal/domain"
	"deepmd-go/internal/md"
	"deepmd-go/internal/mpi"
	"deepmd-go/internal/units"
)

// quickWaterModel is dpserve's built-in quick-scale water model: the
// TinyConfig(2) networks at rc 4.0/0.5 A, skin 1.0 A, sel {12, 24}. The
// rank and serve workloads share it so network math stays cheap and the
// layers around it — exchange, framing, queueing, JSON — are what shows.
func quickWaterModel() (*core.Model, error) {
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	return core.New(cfg)
}

// Tags of the harness's own MPI probes, clear of the domain layer's
// application tags (100..700).
const (
	tagPing        = 9001
	tagPong        = 9002
	tagProbeReduce = 9003
)

// mesh is a set of goroutine-hosted TCP worlds on loopback, one per rank —
// the per-process state cmd/dpmd's launcher spawns, held in one process so
// the harness can time and account both ends.
type mesh struct {
	worlds []*mpi.TCPWorld
}

// dialMesh brings up an n-rank TCP world over loopback sockets.
func dialMesh(n int) (*mesh, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rendezvous := make(chan struct{})
	go func() {
		defer close(rendezvous)
		// A failed rendezvous shows as a failed dial; a one-rank world
		// never registers, so closing the listener is what ends this.
		mpi.ServeRendezvous(ln, n)
	}()

	m := &mesh{worlds: make([]*mpi.TCPWorld, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m.worlds[rank], errs[rank] = mpi.DialTCP(mpi.TCPConfig{Rank: rank, Size: n, Coordinator: ln.Addr().String(), Listen: "127.0.0.1:0"})
		}(rank)
	}
	wg.Wait()
	ln.Close()
	<-rendezvous
	if err := errors.Join(errs...); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// close shuts every world down at once: a world's Close waits for its
// peers' goodbye frames, which they only send from their own Close.
func (m *mesh) close() {
	var wg sync.WaitGroup
	for _, w := range m.worlds {
		if w != nil {
			wg.Add(1)
			go func() { defer wg.Done(); w.Close() }()
		}
	}
	wg.Wait()
}

// each runs f once per rank, concurrently, and returns the first error. A
// failing rank aborts every world so its peers unblock instead of hanging.
func (m *mesh) each(f func(rank int, c *mpi.Comm) error) error {
	errs := make([]error, len(m.worlds))
	var wg sync.WaitGroup
	for rank, w := range m.worlds {
		wg.Add(1)
		go func(rank int, w *mpi.TCPWorld) {
			defer wg.Done()
			if errs[rank] = safely(func() error { return f(rank, w.Comm()) }); errs[rank] != nil {
				for _, peer := range m.worlds {
					peer.Abort()
				}
			}
		}(rank, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// segment runs one domain-decomposed MD segment from sys's (unchanged)
// initial state and returns rank 0's stats.
func (m *mesh) segment(sys *md.System, pots []md.Potential, opt domain.Options) (*domain.Stats, error) {
	var root *domain.Stats
	err := m.each(func(rank int, c *mpi.Comm) error {
		st, err := domain.RunOn(c, sys, pots[rank], opt)
		if rank == 0 {
			root = st
		}
		return err
	})
	return root, err
}

// ranksRun is the state of one water_ranks2_tcp run.
type ranksRun struct {
	env   *runEnv
	m     *mesh
	sys   *md.System
	opt   domain.Options
	pots  []md.Potential
	first *domain.Stats // the warm-up segment, on fresh communicators
	tm    *timing

	// Traced pass only.
	tps           []*tracedPotential
	dial          time.Duration
	overlap       []float64
	wantSnap      bool
	snaps         []rankSnapshot
	before, after runtime.MemStats
}

// runRanks executes water_ranks2_tcp: two single-worker ranks over a
// loopback TCP mesh, one sample per 20-step segment.
func runRanks(env *runEnv) (*runResult, *timing, error) {
	model, err := quickWaterModel()
	if err != nil {
		return nil, nil, err
	}
	rr := &ranksRun{env: env, sys: deepmd.BuildWater(8, 4, 4, env.opt.seed)}
	rr.sys.InitVelocities(mdTemperature, env.opt.seed+1)
	rr.opt = domain.Options{
		Grid: [3]int{workers, 1, 1}, Dt: 0.0005, Steps: segmentSteps, Spec: deepmd.SpecFor(model.Cfg),
		RebuildEvery: 10, ThermoEvery: 5, UseIallreduce: true,
	}

	t0 := time.Now()
	if rr.m, err = dialMesh(workers); err != nil {
		return nil, nil, err
	}
	defer rr.m.close()
	rr.dial = time.Since(t0)

	if env.opt.trace {
		env.rec = newRecorder((env.ops + 1) * workers * (segmentSteps + 4))
	}
	for r := 0; r < workers; r++ {
		var pot md.Potential = core.NewEvaluator[float64](model)
		if env.opt.trace {
			tp := &tracedPotential{inner: pot, rec: env.rec, lane: r}
			rr.tps = append(rr.tps, tp)
			pot = tp
		}
		rr.pots = append(rr.pots, pot)
	}
	// The warm-up segment is the first completed operation; every timed
	// segment must reproduce its thermo bit for bit.
	if rr.first, err = rr.m.segment(rr.sys, rr.pots, rr.opt); err != nil {
		return nil, nil, fmt.Errorf("warm-up segment: %w", err)
	}
	env.setupDone()
	if env.opt.setupOnly {
		return nil, nil, nil
	}

	res := env.newResult(rr.sys.N())
	rr.tm = &timing{steps: env.ops * segmentSteps}
	if env.opt.trace {
		runtime.ReadMemStats(&rr.before)
		rr.tps[0].observe = rr.snapshot
	}
	cpu0 := selfCPU()
	for i := 0; i < env.ops; i++ {
		for r, tp := range rr.tps {
			tp.on, tp.op = true, i
			tp.parent = env.rec.begin("domain.run_on", r, -1, i)
		}
		rr.wantSnap = i%snapshotEvery == snapshotEvery-1 || i == env.ops-1
		st, err := rr.m.segment(rr.sys, rr.pots, rr.opt)
		for _, tp := range rr.tps {
			env.rec.end(tp.parent)
			tp.on = false
		}
		res.Attempted++
		if err != nil {
			// A failed segment leaves the mesh aborted; nothing after it
			// can run.
			res.fail("segment %d: %v", i, err)
			res.Attempted, res.Failed = env.ops, res.Failed+env.ops-i-1
			break
		}
		rr.tm.stepMs = append(rr.tm.stepMs, ms(st.LoopTime)/segmentSteps)
		rr.tm.wall += st.LoopTime
		rr.overlap = append(rr.overlap, sum(st.OverlapPerRank)/float64(len(st.OverlapPerRank)))
		if err := sameThermo(rr.first.Thermo, st.Thermo); err != nil {
			res.fail("segment %d: %v", i, err)
		}
	}
	rr.tm.cpu = selfCPU().sub(cpu0)
	if rr.tm.rssMB, err = peakRSSMB(selfPID); err != nil {
		return nil, nil, err
	}
	if env.opt.trace {
		runtime.ReadMemStats(&rr.after)
	}

	inopt := rr.opt
	inopt.Ranks = workers
	want, err := domain.Run(rr.sys, func() md.Potential { return core.NewEvaluator[float64](model) }, inopt)
	if err == nil {
		err = sameStats(want, rr.first)
	}
	res.check("segment1_vs_inprocess_transport", err)

	if env.opt.trace && res.Failed == 0 {
		res.check("layer_probes", rr.layerMetrics(res))
	}
	return res, rr.tm, nil
}

// sameThermo requires two thermo logs to be finite and bitwise identical.
func sameThermo(want, got []md.Thermo) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d thermo samples, segment 1 had %d", len(got), len(want))
	}
	for k := range want {
		if !finite(got[k].Potential) || !finite(got[k].Kinetic) {
			return fmt.Errorf("thermo sample %d is not finite: %+v", k, got[k])
		}
		if got[k] != want[k] {
			return fmt.Errorf("thermo sample %d differs bitwise from segment 1: %+v vs %+v", k, got[k], want[k])
		}
	}
	return nil
}

// sameStats requires the TCP run's segment 1 to match the in-process
// transport bit for bit: global thermo and per-rank energies.
func sameStats(inproc, tcp *domain.Stats) error {
	if err := sameThermo(inproc.Thermo, tcp.Thermo); err != nil {
		return fmt.Errorf("op 0 (segment 1) vs in-process transport: %w", err)
	}
	for r := range inproc.PEPerRank {
		if tcp.PEPerRank[r] != inproc.PEPerRank[r] {
			return fmt.Errorf("op 0 (segment 1): rank %d potential energy %.17g over tcp, %.17g in process", r, tcp.PEPerRank[r], inproc.PEPerRank[r])
		}
		if tcp.KEPerRank[r] != inproc.KEPerRank[r] {
			return fmt.Errorf("op 0 (segment 1): rank %d kinetic energy %.17g over tcp, %.17g in process", r, tcp.KEPerRank[r], inproc.KEPerRank[r])
		}
	}
	return nil
}

// rankSnapshot is rank 0's ghost-extended configuration at one force call.
type rankSnapshot struct {
	pos   []float64
	types []int
	nloc  int
}

// snapshot is rank 0's tracedPotential.observe hook: it keeps the first
// force call's arguments of every snapshotEvery-th segment.
func (rr *ranksRun) snapshot(pos []float64, types []int, nloc int) {
	if !rr.wantSnap || len(rr.snaps) >= maxSnapshots {
		return
	}
	rr.wantSnap = false
	rr.snaps = append(rr.snaps, rankSnapshot{append([]float64(nil), pos...), append([]int(nil), types...), nloc})
}

// pingPong times iters Send/Recv round trips of payload between ranks 0
// and 1 and returns rank 0's samples in microseconds.
func pingPong(c *mpi.Comm, payload []float64, iters int) []float64 {
	var us []float64
	for i := 0; i < iters; i++ {
		if c.Rank() == 0 {
			t0 := time.Now()
			c.Send(1, tagPing, payload)
			c.Recv(1, tagPong)
			us = append(us, float64(time.Since(t0))/1e3)
		} else {
			c.Send(0, tagPong, c.Recv(0, tagPing).([]float64))
		}
	}
	return us
}

// layerMetrics records the per-layer metrics of the rank workload: probes
// on rank 0's snapshots, side runs on one rank and on the in-process
// transport, and round trips on the run's own mesh.
func (rr *ranksRun) layerMetrics(res *runResult) error {
	env, opt, first := rr.env, rr.opt, rr.first
	d := env.decl
	s := make(sampleSet)
	reps := probeReps(env)
	sideSegments, iters := 5, 2000
	if env.opt.smoke {
		sideSegments, iters = 1, 50
	}

	// neighbor: the non-periodic, ghost-extended build a rank does, one
	// worker; the in-situ rebuild cost comes from the spacing of rank 0's
	// force calls (a rebuild step also migrates and exchanges borders).
	for _, snap := range rr.snaps {
		if _, err := neighborProbes(s, opt.Spec, snap.pos, snap.types, snap.nloc, nil, 1, reps); err != nil {
			return err
		}
	}
	s.emit(env, res, "neighbor.build_ms")
	s.emit(env, res, "neighbor.entries_per_atom")
	s.emit(env, res, "neighbor.format_ms")
	var plain, rebuild []float64
	calls := make(map[int][]span) // segment -> rank 0's force calls, in order
	for _, sp := range env.rec.spans {
		if sp.Name == "core.compute" && sp.Lane == 0 {
			calls[sp.Op] = append(calls[sp.Op], sp)
		}
	}
	for op := 0; op < env.ops; op++ {
		// Call k (0-based) evaluates the forces of step k; the gap between
		// the previous call's end and its start is step k's integration
		// plus its halo exchange or rebuild.
		for k := 1; k < len(calls[op]); k++ {
			gap := float64(calls[op][k].Start-calls[op][k-1].End) / 1e6
			if k%opt.RebuildEvery == 0 {
				rebuild = append(rebuild, gap)
			} else {
				plain = append(plain, gap)
			}
		}
	}
	res.add(d, "neighbor.rebuild_step_extra_ms", extraOver(rebuild, plain), len(rebuild))
	computes := env.rec.durations("core.compute")
	res.add(d, "core.compute_ms", median(computes), len(computes))

	// domain: the same system on one rank over the same transport, and on
	// two ranks over the in-process transport.
	loop := median(rr.tm.stepMs)
	res.add(d, "domain.loop_ms_per_step", loop, len(rr.tm.stepMs))
	one, err := dialMesh(1)
	if err != nil {
		return err
	}
	defer one.close()
	opt1 := opt
	opt1.Grid = [3]int{1, 1, 1}
	// Reusing the two-rank evaluators keeps the side runs warm.
	inprocPots := make(chan md.Potential, workers)
	inopt := opt
	inopt.Ranks = workers
	for i := 0; i <= sideSegments; i++ {
		st, err := one.segment(rr.sys, rr.pots[:1], opt1)
		if err != nil {
			return err
		}
		for _, p := range rr.pots {
			inprocPots <- p
		}
		sti, err := domain.Run(rr.sys, func() md.Potential { return <-inprocPots }, inopt)
		if err != nil {
			return err
		}
		if i > 0 { // the first of each is its warm-up
			s["one_rank"] = append(s["one_rank"], ms(st.LoopTime)/segmentSteps)
			s["inproc"] = append(s["inproc"], ms(sti.LoopTime)/segmentSteps)
		}
	}
	res.add(d, "domain.rank_speedup", median(s["one_rank"])/loop, sideSegments)
	res.add(d, "domain.tcp_over_inproc", loop/median(s["inproc"]), sideSegments)
	res.add(d, "domain.overlap_frac", median(rr.overlap), len(rr.overlap))
	mean := func(v []int) float64 {
		t := 0
		for _, x := range v {
			t += x
		}
		return float64(t) / float64(len(v))
	}
	res.add(d, "domain.atoms_per_rank", mean(first.AtomsPerRank), len(first.AtomsPerRank))
	res.add(d, "domain.ghosts_per_rank", mean(first.GhostsPerRank), len(first.GhostsPerRank))
	// Segment 1 ran on fresh communicators, so its totals are exactly one
	// segment's traffic.
	res.add(d, "domain.msgs_per_step", float64(first.Messages)/segmentSteps, 1)
	res.add(d, "domain.bytes_per_step", float64(first.Bytes)/segmentSteps, 1)
	res.add(d, "domain.wire_bytes_per_step", float64(first.WireBytes)/segmentSteps, 1)

	// mpi: round trips at the mean halo payload size on both transports.
	payload := make([]float64, max(1, int(first.Bytes/first.Messages)/8))
	var tcpUs, reduceUs, inprocUs []float64
	err = rr.m.each(func(rank int, c *mpi.Comm) error {
		us := pingPong(c, payload, iters)
		vals := make([]float64, 8)
		var red []float64
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			c.Allreduce(tagProbeReduce, vals)
			red = append(red, float64(time.Since(t0))/1e3)
		}
		if rank == 0 {
			tcpUs, reduceUs = us, red
		}
		return nil
	})
	if err != nil {
		return err
	}
	mpi.NewWorld(workers).Run(func(c *mpi.Comm) {
		if us := pingPong(c, payload, iters); c.Rank() == 0 {
			inprocUs = us
		}
	})
	rtt := median(tcpUs)
	res.add(d, "mpi.pingpong_us_tcp", rtt, len(tcpUs))
	res.add(d, "mpi.pingpong_us_inproc", median(inprocUs), len(inprocUs))
	res.add(d, "mpi.allreduce_us_tcp", median(reduceUs), len(reduceUs))
	// Both directions of a round trip carry the payload: bytes per
	// microsecond is MB/s.
	res.add(d, "mpi.halo_mbps_tcp", 2*8*float64(len(payload))/rtt, len(tcpUs))
	res.add(d, "mpi.dial_ms", ms(rr.dial), 1)

	runtimeMetrics(env, res, rr.tm.cpu, &rr.before, &rr.after)
	return nil
}
