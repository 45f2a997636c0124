package lint_test

import (
	"testing"

	"deepmd-go/internal/lint"
	"deepmd-go/internal/lint/driver"
	"deepmd-go/internal/lint/linttest"
)

func TestNoalloc(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.NoallocAnalyzer}, "noalloc")
}

// TestNoallocFactsChain checks fact propagation two packages away: the
// //dp:noalloc roots in chain/root call chain/mid wrappers, whose
// verdicts were themselves derived from chain/leaf facts.
func TestNoallocFactsChain(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.NoallocAnalyzer}, "chain/root")
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.DeterminismAnalyzer}, "determinism")
}

func TestDispatch(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.DispatchAnalyzer}, "dispatchfix/use")
}

func TestMpitag(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.MpitagAnalyzer}, "mpifix/use")
}

// TestTestFiles checks that a fixture's test files are analyzed: the
// in-package _test.go with its package, and the external package
// xtestfix_test as its own unit after xtestfix, reading xtestfix's facts.
func TestTestFiles(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.NoallocAnalyzer}, "xtestfix")
}

// TestRepoClean runs the whole suite over the whole module, test files
// included: the regression guard for the audited order-dependent sites
// (the Fig. 4 RDF map range, now a static key list) and for every
// //dp:noalloc and dispatch invariant annotated in the tree. A diagnostic anywhere is a
// test failure, same as the CI gate.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := driver.Run(driver.Config{Dir: "."}, lint.All())
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
	}
}
