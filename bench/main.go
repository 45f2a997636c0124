// Command bench is the repo's one benchmark: the paper's time-to-solution
// (us/step/atom, Table 1) on four fixed workloads, with a per-layer budget
// measured from outside the program. BENCHMARK.json at the repo root
// declares its workloads, metrics and regression bounds; README.md in this
// directory defines every metric.
//
//	go run ./bench -workload all                 # end-to-end metrics + correctness checks
//	go run ./bench -workload all -trace 1        # per-layer metrics (traced pass)
//	go run ./bench -workload water_f64_batched -seed 2 -seconds 10
//	go run ./bench -compare old.json new.json    # regression gate
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// processStart approximates process start: package variables initialize
// before main, right after the runtime is up.
var processStart = time.Now()

var selfPID = os.Getpid()

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	smoke     bool
	reps      int
	out       string
	setupOnly bool
	dpserve   string
}

// runEnv is what one workload run needs from the harness.
type runEnv struct {
	opt    options
	decl   *declaration
	root   string // checkout root
	outDir string // bench/out under root
	name   string
	ops    int

	// buildTime is `go build` time spent since process start; it is
	// excluded from every metric, setup_s included.
	buildTime time.Duration
	setupS    float64
	rec       *recorder
	keptAwake bool // keepAwake children hold the CPUs for the whole run
}

// setupDone marks the end of set-up: the first operation has completed.
func (e *runEnv) setupDone() {
	e.setupS = (time.Since(processStart) - e.buildTime).Seconds()
}

func (e *runEnv) newResult(atoms int) *runResult {
	return &runResult{Workload: e.name, Seed: e.opt.seed, Trace: e.opt.trace, KeptAwake: e.keptAwake, Atoms: atoms, Ops: e.ops}
}

// timing is the raw material of a run's end-to-end metrics.
type timing struct {
	stepMs []float64     // wall time per operation, ms
	wall   time.Duration // timed wall the throughput is taken over
	steps  int           // steps completed in wall (operations; x20 for rank segments)
	cpu    cpuTimes      // CPU of the process under test over the timed region
	rssMB  float64       // VmHWM of the process under test at the end of the timed region
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "all", "workload name, or all: "+strings.Join(workloadOrder, " | "))
	fs.Int64Var(&opt.seed, "seed", 1, "seeds lattice orientations, velocities and frame jitter")
	fs.IntVar(&opt.seconds, "seconds", refSeconds, "run length the fixed operation counts are scaled to (reference-box seconds)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny operation counts (tier-1 test sizing)")
	fs.IntVar(&opt.reps, "reps", 1, "runs per workload; more than one gives the result file its own spread")
	fs.StringVar(&opt.out, "out", "", "result file (default bench/out/result-<workload>[-trace].json)")
	fs.BoolVar(&opt.setupOnly, "setup-only", false, "internal: run the set-up phase, print its time, exit")
	fs.StringVar(&opt.dpserve, "dpserve", "", "prebuilt cmd/dpserve binary (default: built into bench/out/bin)")
	awakeCPU := fs.Int("keep-awake", -1, "internal: spin on this CPU at idle priority until standard input ends")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace != 0
	if *awakeCPU >= 0 {
		if err := spinIdle(*awakeCPU); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files: old.json new.json")
			return 2
		}
		return compareFiles(decl, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if opt.seconds < 1 || opt.reps < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -reps must be at least 1")
		return 2
	}

	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadOrder
	} else if _, ok := refOps[opt.workload]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want all or one of %s)\n", opt.workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	outDir := filepath.Join(root, "bench", "out")
	doc := &document{
		Schema: schemaID, Host: hostFingerprint(root), Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke,
		OpCounts: make(map[string]int),
	}
	for _, n := range names {
		doc.OpCounts[n] = opsFor(n, opt.seconds, opt.smoke, opt.trace)
	}
	if opt.out == "" {
		suffix := ""
		if opt.trace {
			suffix = "-trace"
		}
		opt.out = filepath.Join(outDir, "result-"+opt.workload+suffix+".json")
	}

	ok := true
	if len(names) == 1 && opt.reps == 1 {
		env := &runEnv{opt: opt, decl: decl, root: root, outDir: outDir, name: names[0], ops: doc.OpCounts[names[0]]}
		if !opt.smoke {
			// Without it the run still measures the program, only less
			// steadily; the result file says which it was.
			if stop, err := keepAwake(); err != nil {
				fmt.Fprintln(stderr, "bench: CPUs not kept awake:", err)
			} else {
				defer stop()
				env.keptAwake = true
			}
		}
		res, err := runWorkload(env)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", env.name, err)
			return 1
		}
		if opt.setupOnly {
			fmt.Fprintf(stdout, "{\"setup_s\": %s}\n", strconv.FormatFloat(env.setupS, 'g', -1, 64))
			return 0
		}
		doc.Runs = append(doc.Runs, *res)
	} else {
		// Every run gets a fresh process, so set-up time and peak RSS are
		// not contaminated by the run before it.
		for _, n := range names {
			for rep := 0; rep < opt.reps; rep++ {
				child, err := runChild(opt, n, rep, outDir, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
					ok = false
				}
				if child != nil {
					doc.Runs = append(doc.Runs, child.Runs...)
				}
			}
		}
	}

	for i := range doc.Runs {
		r := &doc.Runs[i]
		printRun(stdout, r)
		if err := r.validate(decl); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			ok = false
		}
		ok = ok && r.correct()
	}
	if err := writeJSON(opt.out, doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result file: %s\n", opt.out)
	if len(doc.Runs) == 1 {
		fmt.Fprintln(stdout, contractLine(decl, &doc.Runs[0]))
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and assembles its result.
func runWorkload(env *runEnv) (*runResult, error) {
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return nil, err
	}
	var res *runResult
	var tm *timing
	var err error
	switch env.name {
	case wlWater:
		res, tm, err = runMD(env, &waterMD)
	case wlCopper:
		res, tm, err = runMD(env, &copperMD)
	case wlRanks:
		res, tm, err = runRanks(env)
	case wlServe:
		res, tm, err = runServe(env)
	}
	if err != nil || env.opt.setupOnly {
		return nil, err
	}
	if res.Attempted > 0 {
		res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	}
	if env.opt.trace {
		path := filepath.Join(env.outDir, "trace-"+env.name+".json")
		if err := writeJSON(path, env.rec.spans); err != nil {
			return nil, err
		}
		if res.TraceFile, err = filepath.Rel(env.root, path); err != nil {
			res.TraceFile = path
		}
		return res, nil
	}

	setups, err := setupSamples(env)
	if err != nil {
		return nil, err
	}
	d := env.decl
	n := len(tm.stepMs)
	res.add(d, "setup_s", median(setups), len(setups))
	res.add(d, "us_per_step_atom", float64(tm.wall.Microseconds())/float64(tm.steps)/float64(res.Atoms), n)
	res.add(d, "step_ms_p50", quietPercentile(tm.stepMs, 0.5), n)
	res.add(d, "step_ms_p90", quietPercentile(tm.stepMs, 0.9), n)
	res.add(d, "cpu_ms_per_step", ms(tm.cpu.total())/float64(tm.steps), n)
	res.add(d, "peak_rss_mb", tm.rssMB, 1)
	return res, nil
}

// setupRuns is the number of set-up samples behind setup_s, each from a
// fresh process: the run itself plus setupRuns-1 -setup-only children. It
// is part of setup_s's definition (median of setupRuns), so it is fixed;
// -smoke takes the run's own sample alone.
const setupRuns = 3

// setupSamples returns this run's own set-up time plus setupRuns-1 more:
// process start to the end of the first completed operation, with nothing
// warm from an earlier set-up.
func setupSamples(env *runEnv) ([]float64, error) {
	samples := []float64{env.setupS}
	if env.opt.smoke {
		return samples, nil
	}
	for i := 1; i < setupRuns; i++ {
		args := []string{"-workload", env.name, "-seed", strconv.FormatInt(env.opt.seed, 10), "-setup-only", "-dpserve", env.opt.dpserve}
		out, err := selfCommand(args...).Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		var s struct {
			SetupS float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(lastLine(out), &s); err != nil || s.SetupS <= 0 {
			return nil, fmt.Errorf("set-up sample %d: unparseable output %q", i, out)
		}
		samples = append(samples, s.SetupS)
	}
	return samples, nil
}

// runChild re-executes the harness binary for one run of one workload and
// reads back its result file.
func runChild(opt options, workload string, rep int, outDir string, stderr io.Writer) (*document, error) {
	out := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", workload, rep))
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(opt.seed, 10), "-seconds", strconv.Itoa(opt.seconds),
		"-trace", trace, "-dpserve", opt.dpserve, "-out", out}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	fmt.Fprintf(stderr, "bench: running %s (%d/%d)\n", workload, rep+1, opt.reps)
	cmd := selfCommand(args...)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	doc, err := readDocument(out)
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	// A child that failed a check still wrote its document; the parent
	// reports the failure from it.
	return doc, nil
}

// selfCommand re-executes this binary. It never goes through `go run`, so
// build time stays out of every child's clock.
func selfCommand(args ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return exec.Command(exe, args...)
}

func lastLine(out []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return []byte(lines[len(lines)-1])
}
