package main

import (
	"bytes"
	"strings"
	"testing"
)

// The tables, each under its banner, print on stdout.
func TestHumanModePrintsToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "==== fig5 ====") {
		t.Fatalf("banner missing from stdout:\n%s", stdout.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr:\n%s", stderr.String())
	}
}
