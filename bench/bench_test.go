package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// dpserveBin is the real cmd/dpserve binary the serve leg boots, built
// once for the whole test run.
var dpserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dpserveBin = filepath.Join(dir, "dpserve")
	if out, err := exec.Command("go", "build", "-o", dpserveBin, "deepmd-go/cmd/dpserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build cmd/dpserve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testDeclaration(t *testing.T) *declaration {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := loadDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json must stay inside the benchmark contract's limits and in
// step with the harness's own tables.
func TestDeclarationWellFormed(t *testing.T) {
	d := testDeclaration(t)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 || len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 || len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: outside 2..8 / 1..16 / 1..128", len(d.Workloads), len(d.EndToEnd), len(d.PerLayer))
	}
	if d.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, harness is calibrated for %d", d.RunSeconds, refSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", d.Paths)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !metricName.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if i >= len(workloadOrder) || w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q, harness runs %v", i, w.Name, workloadOrder)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		name(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range d.PerLayer {
		name(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if layerOn[m.Name] == "" {
			t.Errorf("per-layer metric %s has no workloads in layerOn", m.Name)
		}
	}
	for n := range layerOn {
		if !seen[n] {
			t.Errorf("layerOn names %s, BENCHMARK.json does not declare it", n)
		}
	}
}

// Every workload, both passes, at smoke size: each declared metric is
// emitted exactly once where it applies, nothing fails, every correctness
// check passes. No wall-clock value or ordering is asserted.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads end to end; skipped in -short")
	}
	d := testDeclaration(t)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadOrder {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				opt := options{workload: wl, seed: 1, seconds: refSeconds, trace: trace, smoke: true, dpserve: dpserveBin}
				env := &runEnv{opt: opt, decl: d, root: root, outDir: t.TempDir(), name: wl, ops: opsFor(wl, refSeconds, true, trace)}
				res, err := runWorkload(env)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if err := res.validate(d); err != nil {
					t.Errorf("trace=%v: %v", trace, err)
				}
				if res.FailFrac != 0 || res.Attempted != env.ops {
					t.Errorf("trace=%v: fail_frac %g with %d of %d attempted: %v", trace, res.FailFrac, res.Attempted, env.ops, res.Failures)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("trace=%v: check %s failed: %s", trace, c.Name, c.Detail)
					}
				}
				checkContractLine(t, d, res)
			}
		})
	}
}

// checkContractLine parses the gate's result line back and requires exactly
// the declared names of the pass.
func checkContractLine(t *testing.T, d *declaration, res *runResult) {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    int   `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(contractLine(d, res)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	want := d.EndToEnd
	if res.Trace {
		want = d.PerLayer
	}
	if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
		t.Errorf("result line: correct %v, attempted %d, failed %d, %d metrics (want %d)", line.Correct, line.Attempted, line.Failed, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("result line: metric %s missing or with unit %q (want %q)", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %g, %g median %g; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	if got := spread(v); math.Abs(got-1) > 1e-15 {
		t.Errorf("spread %g, want 1", got)
	}
	if got := percentile(v, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 is %g, want 9 (one sample beyond it)", got)
	}
}

// A burst that slows four of a run's ten windows moves the plain p90 and
// leaves the quiet-window statistics where the undisturbed run has them; a
// tail in every window moves them too.
func TestQuietPercentileIgnoresBursts(t *testing.T) {
	calm := make([]float64, 100)
	for i := range calm {
		calm[i] = 10 + float64(i%10)/10 // 10.0 .. 10.9 in every window
	}
	burst := append([]float64(nil), calm...)
	for i := 30; i < 70; i++ {
		burst[i] *= 1.5
	}
	if percentile(burst, 0.9) <= percentile(calm, 0.9) {
		t.Fatal("the burst does not move the plain p90; the test series is wrong")
	}
	for _, p := range []float64{0.5, 0.9} {
		if got, want := quietPercentile(burst, p), quietPercentile(calm, p); got != want {
			t.Errorf("p%g: %g with a burst, %g without", 100*p, got, want)
		}
	}
	if got := quietPercentile(calm, 0.9); got != 10.8 {
		t.Errorf("quiet p90 of the calm series is %g, want 10.8 (9th of each window's 10)", got)
	}
	slowTail := append([]float64(nil), calm...)
	for i := 8; i < 100; i += 10 {
		slowTail[i], slowTail[i+1] = 20, 20
	}
	if got := quietPercentile(slowTail, 0.9); got != 20 {
		t.Errorf("a tail present in every window reads %g, want 20", got)
	}
	if got := quietPercentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("three samples fall back to the plain percentile: got %g, want 2", got)
	}
}

// The gate's verdicts and its exit code, including the files it must not
// pass: a lost workload, another seed, another sizing.
func TestCompareVerdicts(t *testing.T) {
	d := testDeclaration(t)
	doc := func(stepP50 []float64, failed int) *document {
		out := &document{Schema: schemaID, OpCounts: map[string]int{wlWater: 100}}
		for _, v := range stepP50 {
			r := runResult{Workload: wlWater, Attempted: 100, Failed: failed}
			r.add(d, "step_ms_p50", v, 100)
			out.Runs = append(out.Runs, r)
		}
		return out
	}
	var bound float64
	for _, m := range d.EndToEnd {
		if m.Name == "step_ms_p50" {
			bound = m.Bound
		}
	}
	scaled := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	steady := []float64{100, 100.2, 99.9, 100.1}
	lostMetric := doc(nil, 0)
	other := runResult{Workload: wlWater, Attempted: 100}
	other.add(d, "step_ms_p90", 120, 100)
	lostMetric.Runs = append(lostMetric.Runs, other)
	for _, tc := range []struct {
		name    string
		new     *document
		verdict string
		code    int
	}{
		{"same", doc(steady, 0), "ok", 0},
		{"faster", doc(scaled(steady, 0.8), 0), "ok", 0},
		{"within bound", doc(scaled(steady, 1+bound/2), 0), "ok", 0},
		{"slower", doc(scaled(steady, 1+2*bound), 0), "regressed", 1},
		{"noisy", doc([]float64{100 * (1 - bound), 100 * (1 + 2*bound), 100, 100 * (1 + 3*bound)}, 0), "unresolved", 0},
		{"failing", doc(steady, 1), "regressed", 1},
		{"lost workload", &document{Schema: schemaID}, "missing", 1},
		{"lost metric", lostMetric, "missing", 1},
		{"other seed", &document{Schema: schemaID, Seed: 2, Runs: doc(steady, 0).Runs}, "not comparable", 1},
		{"smoke sizing", &document{Schema: schemaID, Smoke: true, Runs: doc(steady, 0).Runs}, "not comparable", 1},
		{"other op count", &document{Schema: schemaID, OpCounts: map[string]int{wlWater: 50}, Runs: doc(steady, 0).Runs}, "not comparable", 1},
	} {
		var out bytes.Buffer
		if code := compareDocs(d, doc(steady, 0), tc.new, &out); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.verdict, out.String())
		}
	}
}
