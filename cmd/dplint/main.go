// Command dplint runs the repo's static-analysis suite (internal/lint):
// noalloc, determinism, dispatch, and mpitag. It type-checks the module
// from source, test files included:
//
//	dplint ./...
//	dplint -tags purego ./internal/core/... ./internal/md
//
// Exit status is nonzero when any diagnostic is reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deepmd-go/internal/lint"
	"deepmd-go/internal/lint/driver"
)

func main() {
	analyzers := lint.All()
	tags := flag.String("tags", "", "comma-separated build tags (e.g. purego)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dplint [-tags list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := driver.Config{Dir: ".", Patterns: flag.Args()}
	if *tags != "" {
		cfg.BuildTags = strings.Split(*tags, ",")
	}
	diags, err := driver.Run(cfg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Printf("%s: %s [dplint:%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
