// Command dpmd runs Deep Potential molecular dynamics, the role the
// LAMMPS + DeePMD-kit pair plays in the paper.
//
// Usage examples:
//
//	dpmd -system water -nx 4 -steps 500
//	dpmd -system copper -nx 4 -steps 200 -precision mixed -ranks 4
//	dpmd -system water -strategy compressed -model water.dp -dump traj.xyz
//	dpmd -system water -ranks 4 -transport tcp               # 4 OS processes over sockets
//	dpmd -system water -ranks 2 -transport tcp -mpi-rank 0 -hosts hostA:7001,hostB:7001
//	dpmd -system water -netscale paper -nx 6 -steps 60 -cpuprofile water.prof   # go tool pprof water.prof
//
// With -transport tcp and no -mpi-rank, dpmd acts as a launcher: it
// re-executes itself -ranks times with a shared rendezvous coordinator,
// so the run spans real OS processes connected by TCP sockets. To span
// machines, start one dpmd per host yourself, giving every invocation the
// same -hosts table (rank i binds the port of hosts[i]) and its own
// -mpi-rank. Both transports produce bit-identical physics.
//
// Execution is configured through the shared engine flags (-precision,
// -strategy, -workers, -concurrency; see internal/cliopt):
// the flags translate into deepmd.Open options, one Engine is built, and
// both the serial and the domain-decomposed runs evaluate through it —
// with -ranks > 1 every simulated MPI rank borrows from the same
// evaluator pool. Without -model, a freshly initialized model with the
// system's default geometry (scaled to -netscale) is used: fine for
// performance runs, not for physics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"deepmd-go/internal/cliopt"
	"deepmd-go/internal/compress"
	"deepmd-go/internal/core"
	"deepmd-go/internal/domain"
	"deepmd-go/internal/md"
	"deepmd-go/internal/mpi"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor"
	"deepmd-go/internal/units"

	deepmd "deepmd-go"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dpmd: ")

	system := flag.String("system", "water", "water | copper | nanocu")
	nx := flag.Int("nx", 4, "supercell edge (molecules for water, cells for copper)")
	boxL := flag.Float64("boxl", 40, "nanocrystal box edge in Angstrom (nanocu)")
	grains := flag.Int("grains", 4, "nanocrystal grain count (nanocu)")
	steps := flag.Int("steps", 500, "MD steps")
	netscale := flag.String("netscale", "tiny", "tiny | paper network geometry (ignored with -model)")
	modelPath := flag.String("model", "", "load a trained model file instead of random weights")
	ranks := flag.Int("ranks", 1, "MPI ranks (domain decomposition)")
	transport := flag.String("transport", "inproc", "multi-rank transport: inproc (goroutine ranks in this process) | tcp (one OS process per rank over sockets)")
	hosts := flag.String("hosts", "", "comma-separated host:port table, one entry per rank, for multi-machine tcp runs (each machine runs dpmd with its own -mpi-rank)")
	mpiRank := flag.Int("mpi-rank", -1, "this process's rank in a tcp world; set by the launcher, or by hand with -hosts")
	mpiCoord := flag.String("mpi-coord", "", "rendezvous coordinator address for a tcp world; set by the launcher")
	thermoJSON := flag.String("thermo-json", "", "write the thermo log and comm summary as JSON to this file (rank 0)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the MD step loop to this file (rank 0)")
	tempK := flag.Float64("temp", 330, "initial temperature (K)")
	seed := flag.Int64("seed", 1, "random seed")
	dump := flag.String("dump", "", "write final configuration as XYZ")
	eng := cliopt.Bind(flag.CommandLine, runtime.NumCPU())
	flag.Parse()
	run := runFlags{system: *system, nx: *nx, steps: *steps, grains: *grains, ranks: *ranks, boxL: *boxL, tempK: *tempK}
	if err := run.check(); err != nil {
		usageExit(err)
	}

	// In a tcp world only rank 0 narrates; the other workers would print
	// the identical banner and thermo log (SPMD: same inputs, same state),
	// and the local launcher leaves it to its rank 0.
	if *mpiRank == 0 || (*mpiRank < 0 && *transport != "tcp") {
		fmt.Fprintf(os.Stderr, "dpmd: %s\n", tensor.KernelInfo())
	}

	if *transport != "inproc" && *transport != "tcp" {
		log.Fatalf("unknown transport %q (want inproc or tcp)", *transport)
	}
	if *transport == "inproc" && (*mpiRank >= 0 || *hosts != "") {
		log.Fatal("-mpi-rank and -hosts only apply with -transport tcp")
	}
	// Launcher mode: with -transport tcp and no assigned rank, re-execute
	// this binary once per rank against a local rendezvous coordinator.
	// Each child re-enters main with the same command line plus -mpi-rank
	// and -mpi-coord, runs its rank, and the parent exits with the status of
	// the first rank to fail.
	if *transport == "tcp" && *mpiRank < 0 {
		if *hosts != "" {
			log.Fatal("-hosts describes a static multi-machine world: start dpmd on each machine with its own -mpi-rank instead of relying on the local launcher")
		}
		if *ranks < 2 {
			log.Fatal("-transport tcp needs -ranks >= 2 (use inproc for a single rank)")
		}
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		err = mpi.LaunchLocal(*ranks, func(rank int, coord string) *exec.Cmd {
			args := append(append([]string{}, os.Args[1:]...),
				"-mpi-rank", strconv.Itoa(rank), "-mpi-coord", coord)
			cmd := exec.Command(exe, args...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			return cmd
		})
		if err != nil {
			// Exit as the first rank to fail did: a usage error in the
			// ranks is still status 2.
			log.Print(err)
			var ee *exec.ExitError
			if errors.As(err, &ee) && ee.ExitCode() > 0 {
				os.Exit(ee.ExitCode())
			}
			os.Exit(1)
		}
		return
	}

	var sys *deepmd.System
	var cfg core.Config
	dt := 0.0005
	switch *system {
	case "water":
		sys = deepmd.BuildWater(*nx, *nx, *nx, *seed)
		cfg = waterCfg(*netscale)
	case "copper":
		sys = deepmd.BuildCopper(*nx, *nx, *nx)
		cfg = copperCfg(*netscale)
		dt = 0.001
	case "nanocu":
		sys = deepmd.BuildNanocrystal(*boxL, *grains, *seed)
		cfg = copperCfg(*netscale)
		dt = 0.0005
	default:
		log.Fatalf("unknown system %q", *system)
	}
	if sys.N() == 0 {
		usageExit(fmt.Errorf("-system %s: the flags build no atoms", *system))
	}

	var model *core.Model
	var err error
	if *modelPath != "" {
		model, err = core.LoadFile(*modelPath)
	} else {
		cfg.Seed = *seed
		model, err = core.New(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	// Split the worker budget across ranks so rank evaluations do not
	// oversubscribe the machine, and make sure the engine pool can serve
	// every rank's force call concurrently.
	eng.Workers = max(1, eng.Workers / *ranks)
	if eng.MaxConcurrency == 0 && *ranks > 1 {
		eng.MaxConcurrency = *ranks
	}
	mcfg := model.Cfg
	spec := neighbor.Spec{Rcut: mcfg.Rcut, Skin: mcfg.Skin, Sel: mcfg.Sel}
	popt := deepmd.ParallelOptions{
		Ranks: *ranks, Dt: dt, Steps: *steps, Spec: spec,
		RebuildEvery: 50, ThermoEvery: 20, UseIallreduce: true,
	}
	// The domain run's own grid rule, now that rcut + skin is known (for
	// one rank it is the serial run's minimum-image rule): a box too small
	// for the ranks or the cutoff is a usage error, caught before any file
	// is written or table built.
	if _, err := domain.ResolveGrid(popt, sys.Box); err != nil {
		usageExit(err)
	}

	// Open the thermo and profile files before the run, so an unwritable
	// path costs nothing. In a tcp world rank 0 writes them.
	var thermoFile, profFile *os.File
	if *thermoJSON != "" && *mpiRank <= 0 {
		f, err := os.Create(*thermoJSON)
		if err != nil {
			usageExit(err)
		}
		defer f.Close()
		thermoFile = f
	}
	if *cpuProfile != "" && *mpiRank <= 0 {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			usageExit(err)
		}
		defer f.Close()
		profFile = f
	}
	// profiled runs the step loop, under the CPU profile when one is asked
	// for.
	profiled := func(loop func() error) error {
		if profFile == nil {
			return loop()
		}
		if err := pprof.StartCPUProfile(profFile); err != nil {
			return err
		}
		err := loop()
		pprof.StopCPUProfile()
		if err == nil {
			err = profFile.Close()
			fmt.Printf("wrote %s\n", *cpuProfile)
		}
		return err
	}

	// Resolve the flag spellings first: a typo must not pay for the
	// table build below.
	opts, err := eng.Options()
	if err != nil {
		log.Fatal(err)
	}

	// The compressed strategy runs the tables attached to the model
	// (Open validates they exist): a checkpoint that already carries
	// tables — possibly at a non-default resolution or domain — is used
	// as shipped, otherwise tabulate once here so every pooled evaluator
	// (and a model saved later) shares the same build.
	if eng.Strategy == "compressed" && model.Compressed == nil {
		if err := model.AttachCompressedTables(compress.Spec{}); err != nil {
			log.Fatal(err)
		}
	}

	engine, err := deepmd.Open(model, opts...)
	if err != nil {
		log.Fatal(err)
	}
	plan := engine.Plan()

	sys.InitVelocities(*tempK, *seed+1)
	if *mpiRank <= 0 {
		fmt.Printf("system %s: %d atoms, box %.1f x %.1f x %.1f A, dt %.1f fs, %s/%s plan, %d rank(s), %s transport\n",
			*system, sys.N(), sys.Box.L[0], sys.Box.L[1], sys.Box.L[2], dt*1000,
			plan.Precision, plan.Strategy, *ranks, *transport)
	}

	if *ranks > 1 || *mpiRank >= 0 || *thermoJSON != "" {
		var stats *deepmd.ParallelStats
		if *transport == "tcp" {
			cfg := mpi.TCPConfig{Rank: *mpiRank, Size: *ranks, Coordinator: *mpiCoord}
			if *hosts != "" {
				cfg.Hosts = strings.Split(*hosts, ",")
			}
			w, err := mpi.DialTCP(cfg)
			if err != nil {
				log.Fatal(err)
			}
			err = profiled(func() (err error) {
				stats, err = deepmd.RunParallelOn(w.Comm(), sys, engine, popt)
				return err
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
			if *mpiRank != 0 {
				return
			}
		} else {
			err := profiled(func() (err error) {
				stats, err = deepmd.RunParallel(sys, func() deepmd.Potential { return engine }, popt)
				return err
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		for _, th := range stats.Thermo {
			printThermo(th)
		}
		perStep := stats.LoopTime.Seconds() / float64(*steps)
		fmt.Printf("MD loop %.2f s | %.1f ms/step | %.3g s/step/atom | %d msgs, %d bytes (%d framed)\n",
			stats.LoopTime.Seconds(), perStep*1000, perStep/float64(sys.N()), stats.Messages, stats.Bytes, stats.WireBytes)
		if thermoFile != nil {
			if err := writeThermoJSON(thermoFile, *transport, *ranks, stats); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *thermoJSON)
		}
		return
	}

	sim, err := deepmd.NewSimulation(sys, engine, deepmd.SimOptions{
		Dt: dt, Spec: spec, RebuildEvery: 50, ThermoEvery: 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := profiled(func() error { return sim.Run(*steps) }); err != nil {
		log.Fatal(err)
	}
	for _, th := range sim.Log {
		printThermo(th)
	}
	perStep := sim.LoopTime.Seconds() / float64(*steps)
	fmt.Printf("MD loop %.2f s | %.1f ms/step | %.3g s/step/atom\n",
		sim.LoopTime.Seconds(), perStep*1000, perStep/float64(sys.N()))

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := md.WriteXYZ(f, sys, mcfg.TypeNames, fmt.Sprintf("step=%d", *steps)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *dump)
	}
}

// thermoDoc is the -thermo-json schema. The physics block is transport
// invariant: for the same seed and command line, `jq -S .physics` is
// byte-identical between -transport inproc and -transport tcp (Go's JSON
// encoder emits shortest-round-trip float64s, so bit-identical physics
// means byte-identical JSON) — the CI smoke diffs exactly that. The comm
// block is per-transport diagnostics (transport name, timings, overlap),
// so it is not compared; its message and byte counts agree between the
// two worlds.
type thermoDoc struct {
	Physics struct {
		Thermo       []deepmd.Thermo `json:"thermo"`
		PEPerRank    []float64       `json:"pe_per_rank"`
		KEPerRank    []float64       `json:"ke_per_rank"`
		AtomsPerRank []int           `json:"atoms_per_rank"`
	} `json:"physics"`
	Comm struct {
		Transport      string    `json:"transport"`
		Ranks          int       `json:"ranks"`
		Messages       int64     `json:"messages"`
		Bytes          int64     `json:"bytes"`
		WireBytes      int64     `json:"wire_bytes"`
		OverlapPerRank []float64 `json:"overlap_per_rank"`
		LoopSeconds    float64   `json:"loop_seconds"`
	} `json:"comm"`
}

func writeThermoJSON(f *os.File, transport string, ranks int, st *deepmd.ParallelStats) error {
	var doc thermoDoc
	doc.Physics.Thermo = st.Thermo
	doc.Physics.PEPerRank = st.PEPerRank
	doc.Physics.KEPerRank = st.KEPerRank
	doc.Physics.AtomsPerRank = st.AtomsPerRank
	doc.Comm.Transport = transport
	doc.Comm.Ranks = ranks
	doc.Comm.Messages = st.Messages
	doc.Comm.Bytes = st.Bytes
	doc.Comm.WireBytes = st.WireBytes
	doc.Comm.OverlapPerRank = st.OverlapPerRank
	doc.Comm.LoopSeconds = st.LoopTime.Seconds()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	return f.Close()
}

// runFlags are the numeric flags that size the run, checked before
// anything is built.
type runFlags struct {
	system                   string
	nx, steps, grains, ranks int
	boxL, tempK              float64
}

// check reports the first flag no run can start from.
func (r runFlags) check() error {
	if r.steps < 1 {
		return fmt.Errorf("-steps %d: need at least one step", r.steps)
	}
	if r.ranks < 1 {
		return fmt.Errorf("-ranks %d: need at least one rank", r.ranks)
	}
	if !(r.tempK >= 0) || math.IsInf(r.tempK, 1) {
		return fmt.Errorf("-temp %g: need a finite temperature >= 0 K", r.tempK)
	}
	switch r.system {
	case "water", "copper":
		if r.nx < 1 {
			return fmt.Errorf("-nx %d: need at least one cell", r.nx)
		}
	case "nanocu":
		if !(r.boxL > 0) || math.IsInf(r.boxL, 1) {
			return fmt.Errorf("-boxl %g: need a finite box edge > 0", r.boxL)
		}
		if r.grains < 1 {
			return fmt.Errorf("-grains %d: need at least one grain", r.grains)
		}
	}
	return nil
}

// usageExit reports a flag error and exits with status 2.
func usageExit(err error) {
	fmt.Fprintf(os.Stderr, "dpmd: %v\n", err)
	os.Exit(2)
}

func printThermo(th deepmd.Thermo) {
	fmt.Printf("step %6d  T %7.1f K  PE %12.4f eV  KE %10.4f eV  P %10.1f bar\n",
		th.Step, th.Temperature, th.Potential, th.Kinetic, th.Pressure)
}

func waterCfg(scale string) core.Config {
	if scale == "paper" {
		return core.WaterConfig()
	}
	cfg := core.TinyConfig(2)
	cfg.TypeNames = []string{"O", "H"}
	cfg.Masses = []float64{units.MassO, units.MassH}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 4.0, 0.5, 1.0
	cfg.Sel = []int{12, 24}
	return cfg
}

func copperCfg(scale string) core.Config {
	if scale == "paper" {
		return core.CopperConfig()
	}
	cfg := core.TinyConfig(1)
	cfg.TypeNames = []string{"Cu"}
	cfg.Masses = []float64{units.MassCu}
	cfg.Rcut, cfg.RcutSmth, cfg.Skin = 5.0, 2.0, 1.0
	cfg.Sel = []int{80}
	return cfg
}
