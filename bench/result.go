package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"
)

// schemaID names the result-file layout; bump it when a field changes
// meaning so -compare can refuse mixed files.
const schemaID = "deepmd-go/bench/v1"

// metric is one measured value with its unit and the number of samples
// behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// checkResult is the outcome of one correctness check. A failed check's
// Detail names the workload, the operation index and the first differing
// quantity.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is one run of one workload: the end-to-end metrics when Trace
// is false, the per-layer metrics when it is true.
type runResult struct {
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Trace     bool          `json:"trace"`
	KeptAwake bool          `json:"kept_awake"` // idle-priority spinners held every CPU (see keepAwake)
	Atoms     int           `json:"atoms"`
	Ops       int           `json:"ops"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	FailFrac  float64       `json:"fail_frac"`
	Failures  []string      `json:"failures,omitempty"`
	Metrics   []metric      `json:"metrics"`
	Checks    []checkResult `json:"checks"`
	TraceFile string        `json:"trace_file,omitempty"`
}

// document is the result file: one JSON document per harness invocation.
type document struct {
	Schema   string         `json:"schema"`
	Host     fingerprint    `json:"host"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Smoke    bool           `json:"smoke,omitempty"`
	OpCounts map[string]int `json:"op_counts"`
	Runs     []runResult    `json:"runs"`
}

// maxFailures bounds the failure messages kept per run; the count itself
// is exact.
const maxFailures = 8

// fail records one failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, r.Workload+": "+fmt.Sprintf(format, args...))
	}
}

// check records a correctness-check outcome; err == nil passes.
func (r *runResult) check(name string, err error) {
	c := checkResult{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = r.Workload + ": " + err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// correct reports whether every check passed and no operation failed.
func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// add records a metric. The unit comes from BENCHMARK.json, so an
// undeclared name is a harness bug and panics. A value that is not a
// number (zero denominator, empty sample set) is a broken measurement: it
// fails a check that names the metric and is left out, never stored as 0,
// which would read as a perfect score.
func (r *runResult) add(d *declaration, name string, value float64, n int) {
	unit, ok := d.units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.check("metric_is_a_number", fmt.Errorf("metric %s measured %v", name, value))
		return
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

// get returns a recorded metric's value.
func (r *runResult) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validate checks a run against the declaration: every declared metric
// that applies to the workload is present exactly once, nothing else is.
func (r *runResult) validate(d *declaration) error {
	want := make(map[string]bool)
	if r.Trace {
		for _, m := range d.PerLayer {
			if appliesTo(m.Name, r.Workload) {
				want[m.Name] = true
			}
		}
	} else {
		for _, m := range d.EndToEnd {
			want[m.Name] = true
		}
	}
	seen := make(map[string]bool)
	for _, m := range r.Metrics {
		switch {
		case !metricName.MatchString(m.Name):
			return fmt.Errorf("%s: metric name %q is malformed", r.Workload, m.Name)
		case seen[m.Name]:
			return fmt.Errorf("%s: metric %s emitted twice", r.Workload, m.Name)
		case !want[m.Name]:
			return fmt.Errorf("%s: metric %s emitted but not declared for this workload and pass", r.Workload, m.Name)
		}
		seen[m.Name] = true
	}
	var missing []string
	for name := range want {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s: declared metrics not emitted: %v", r.Workload, missing)
	}
	return nil
}

// printRun writes the human-readable table of one run.
func printRun(w io.Writer, r *runResult) {
	pass := "end-to-end"
	if r.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d atoms  %d ops  %s\n", r.Workload, r.Seed, r.Atoms, r.Ops, pass)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d  (%d failed)\n", "fail_frac", r.FailFrac, "ratio", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED  " + c.Detail
		}
		fmt.Fprintf(w, "  check %-28s %s\n", c.Name, verdict)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

// contractLine is the last line of standard output the regression gate
// parses: with tracing off every end-to-end metric, with tracing on every
// per-layer metric. The gate wants every declared per-layer name on every
// workload, so a metric whose layer does not run there reads 0 here (and
// is absent from the result file).
func contractLine(d *declaration, r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls := d.EndToEnd
	if r.Trace {
		decls = d.PerLayer
	}
	ms := make(map[string]mv, len(decls))
	for _, m := range decls {
		v, _ := r.get(m.Name)
		ms[m.Name] = mv{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(line)
}

// writeJSON writes v as indented JSON, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(document)
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schemaID {
		return nil, fmt.Errorf("%s: schema %q, want %q (legacy BENCH_PR3-9.json files are not comparable)", path, doc.Schema, schemaID)
	}
	return doc, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
