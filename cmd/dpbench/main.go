// Command dpbench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Usage:
//
//	dpbench [-exp name[,name...]|all] [-full] [-ranks N]
//
// `dpbench -h` lists the experiment names; all runs every one of them in
// table order. By default experiments run at Quick scale (seconds on one
// CPU core); -full uses the paper's network geometry and larger systems.
// Results print on stdout, progress and errors on stderr. Speed is
// measured by `go run ./bench`, not by dpbench.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"deepmd-go/internal/experiments"
	"deepmd-go/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experiment is one entry of dpbench's table: its -exp name and the call
// that produces its printable result.
type experiment struct {
	name string
	run  func(sc experiments.Scale, ranks int) (any, error)
}

// table lists every experiment in the order `-exp all` runs them.
var table = []experiment{
	{"table1", func(sc experiments.Scale, _ int) (any, error) { return experiments.Table1(sc) }},
	{"table3", func(sc experiments.Scale, _ int) (any, error) {
		nx, reps := 5, 5
		if sc == experiments.Full {
			nx, reps = 8, 3
		}
		res, err := experiments.Table3(sc, nx, reps)
		if err != nil {
			return nil, err
		}
		st, kf, err := experiments.AblationSort(sc, nx, reps)
		if err != nil {
			return nil, err
		}
		return fmt.Sprintf("%v\nAblation (Sec 5.2.2): struct sort %.2f ms vs key format %.2f ms (%.1fx)\n",
			res, st.Seconds()*1000, kf.Seconds()*1000, float64(st)/float64(kf)), nil
	}},
	{"fig3", func(sc experiments.Scale, _ int) (any, error) { return experiments.Fig3(sc, 3) }},
	{"mixed", func(sc experiments.Scale, _ int) (any, error) { return experiments.Mixed(sc, 3) }},
	{"single", func(sc experiments.Scale, _ int) (any, error) { return experiments.Single(sc, 3) }},
	{"fig4", func(sc experiments.Scale, _ int) (any, error) { return experiments.Fig4(sc) }},
	{"fig5", func(experiments.Scale, int) (any, error) { return experiments.Fig5Table(), nil }},
	{"fig6", func(experiments.Scale, int) (any, error) { return experiments.Fig6Table(), nil }},
	{"table4", func(experiments.Scale, int) (any, error) { return experiments.Table4Text(), nil }},
	{"setup", func(sc experiments.Scale, ranks int) (any, error) {
		txt, _, err := experiments.SetupText(sc, ranks)
		return txt, err
	}},
	{"scaling", func(sc experiments.Scale, ranks int) (any, error) {
		counts := []int{1, 2, 4}
		if ranks > 4 {
			counts = append(counts, ranks)
		}
		return experiments.LocalScaling(sc, 20, counts)
	}},
	{"fig7", func(sc experiments.Scale, _ int) (any, error) { return experiments.Fig7(sc) }},
}

// run is main with the process seams injected: args are the command-line
// arguments, stdout receives results, stderr receives progress and errors.
// The exit code is returned instead of calling os.Exit, so tests can drive
// the whole binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}

	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (comma separated): "+strings.Join(names, ", ")+", all")
	full := fs.Bool("full", false, "use paper-scale networks and larger systems (slow on CPU)")
	ranks := fs.Int("ranks", 4, "simulated ranks for setup/scaling experiments")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fmt.Fprintf(stderr, "dpbench: %s\n", tensor.KernelInfo())

	sc := experiments.Quick
	if *full {
		sc = experiments.Full
	}
	selected := names
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
	}
	for _, name := range selected {
		name = strings.TrimSpace(name)
		i := slices.Index(names, name)
		if i < 0 {
			fmt.Fprintf(stderr, "dpbench: unknown experiment %q\n", name)
			return 2
		}
		fmt.Fprintf(stdout, "==== %s ====\n", name)
		res, err := table[i].run(sc, *ranks)
		if err != nil {
			fmt.Fprintf(stderr, "dpbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout, res)
	}
	return 0
}
