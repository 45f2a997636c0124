package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"deepmd-go/internal/experiments"
)

// With -json, stdout must be a single parseable JSON document — every
// banner and progress line goes to stderr (the satellite bugfix: piping
// `dpbench -json > BENCH.json` used to capture corrupt JSON).
func TestJSONModeKeepsStdoutClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "batch", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var records []experiments.Record
	if err := json.Unmarshal(stdout.Bytes(), &records); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\nstdout:\n%s", err, stdout.String())
	}
	if len(records) == 0 {
		t.Fatal("no records decoded")
	}
	for _, r := range records {
		if r.Experiment != "batch" || r.NsPerOp <= 0 {
			t.Fatalf("implausible record %+v", r)
		}
	}
	if strings.Contains(stdout.String(), "====") {
		t.Fatalf("banner leaked into stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "==== batch ====") {
		t.Fatalf("banner missing from stderr:\n%s", stderr.String())
	}
}

// A non-recorder experiment under -json is skipped with a notice on
// stderr, and stdout still carries exactly one valid (empty) JSON array.
func TestJSONModeSkipsNonRecorders(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig5", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var records []experiments.Record
	if err := json.Unmarshal(stdout.Bytes(), &records); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\nstdout:\n%s", err, stdout.String())
	}
	if len(records) != 0 {
		t.Fatalf("expected no records, got %d", len(records))
	}
	if !strings.Contains(stderr.String(), "no JSON records") {
		t.Fatalf("skip notice missing from stderr:\n%s", stderr.String())
	}
}

// Without -json, the human tables keep printing on stdout.
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
