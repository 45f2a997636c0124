package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Workload names, in BENCHMARK.json order. Later issues refer to them
// verbatim.
const (
	wlWater  = "water_f64_batched"
	wlCopper = "copper_f32_compressed"
	wlRanks  = "water_ranks2_tcp"
	wlServe  = "serve_http_closed2"
)

// workloadOrder fixes the run order of `-workload all` and the digit each
// workload has in layerOn.
var workloadOrder = []string{wlWater, wlCopper, wlRanks, wlServe}

// refSeconds is the run length the op counts below are calibrated for on
// the reference box (BENCHMARK.json run_seconds). Counts scale linearly
// with -seconds and are otherwise fixed, never host- or duration-derived,
// so they repeat exactly from run to run.
const refSeconds = 25

// refOps is each workload's timed operation count at refSeconds: MD steps,
// 20-step rank segments, served requests.
var refOps = map[string]int{wlWater: 100, wlCopper: 100, wlRanks: 100, wlServe: 2000}

// smokeOps is the -smoke sizing the tier-1 test runs.
var smokeOps = map[string]int{wlWater: 3, wlCopper: 3, wlRanks: 2, wlServe: 20}

// segmentSteps is the MD steps per water_ranks2_tcp segment.
const segmentSteps = 20

// opsFor returns the timed operation count of one run. The traced pass is
// shorter: a quarter of the operations, but half for the MD workloads so
// that at refSeconds its window (steps 2..51) still holds a neighbor
// rebuild.
func opsFor(workload string, seconds int, smoke, trace bool) int {
	if smoke {
		return smokeOps[workload]
	}
	ops := refOps[workload] * seconds / refSeconds
	if trace {
		if workload == wlWater || workload == wlCopper {
			ops /= 2
		} else {
			ops /= 4
		}
	}
	return max(1, ops)
}

// layerOn maps every per-layer metric to the workloads its layer runs on,
// as digits into workloadOrder (1 = water_f64_batched ... 4 =
// serve_http_closed2). Names, units and directions live in BENCHMARK.json;
// the tier-1 test holds the two in step.
var layerOn = map[string]string{
	"neighbor.build_ms":              "1234",
	"neighbor.entries_per_atom":      "1234",
	"neighbor.format_ms":             "1234",
	"neighbor.rebuild_step_extra_ms": "123",

	"descriptor.env_ms":         "12",
	"descriptor.prod_force_ms":  "12",
	"descriptor.prod_virial_ms": "12",

	"nn.embed_fwdbwd_ms": "1",
	"nn.embed_gflops":    "1",
	"nn.fit_fwdbwd_ms":   "12",
	"nn.fit_gflops":      "12",

	"tensor.gemm_embed_gflops": "1",
	"tensor.gemm_fit_gflops":   "12",
	"tensor.peak_gflops":       "12",

	"compress.lookup_ms":           "2",
	"compress.lookup_ns_per_entry": "2",
	"compress.table_mb":            "2",
	"compress.build_s":             "2",

	"core.compute_ms":         "123",
	"core.compute_1w_ms":      "12",
	"core.workers_speedup":    "12",
	"core.flops_per_step":     "12",
	"core.gflops":             "12",
	"core.frac_of_peak":       "12",
	"core.cat_gemm_frac":      "12",
	"core.cat_tanh_frac":      "12",
	"core.cat_slice_frac":     "12",
	"core.cat_custom_frac":    "12",
	"core.cat_other_frac":     "12",
	"core.unaccounted_frac":   "12",
	"core.arena_mb":           "12",
	"core.batch_ms_per_frame": "4",

	"md.step_ms":                  "12",
	"md.self_ms":                  "12",
	"md.self_frac":                "12",
	"md.allocs_per_step":          "12",
	"md.alloc_bytes_per_step":     "12",
	"md.energy_drift_ev_per_atom": "12",

	"domain.loop_ms_per_step":    "3",
	"domain.rank_speedup":        "3",
	"domain.tcp_over_inproc":     "3",
	"domain.overlap_frac":        "3",
	"domain.atoms_per_rank":      "3",
	"domain.ghosts_per_rank":     "3",
	"domain.msgs_per_step":       "3",
	"domain.bytes_per_step":      "3",
	"domain.wire_bytes_per_step": "3",

	"mpi.pingpong_us_tcp":    "3",
	"mpi.pingpong_us_inproc": "3",
	"mpi.allreduce_us_tcp":   "3",
	"mpi.halo_mbps_tcp":      "3",
	"mpi.dial_ms":            "3",

	"serve.http_ms_p50":         "4",
	"serve.http_ms_p99":         "4",
	"serve.req_per_s":           "4",
	"serve.inproc_ms_p50":       "4",
	"serve.engine_ms_p50":       "4",
	"serve.batcher_overhead_ms": "4",
	"serve.coalesce_factor":     "4",
	"serve.rejected":            "4",
	"serve.expired":             "4",

	"dpserve.http_overhead_ms":  "4",
	"dpserve.json_roundtrip_ms": "4",
	"dpserve.req_bytes":         "4",
	"dpserve.resp_bytes":        "4",

	"runtime.cpu_user_s":            "1234",
	"runtime.cpu_sys_s":             "1234",
	"runtime.sys_frac":              "1234",
	"runtime.gc_cycles":             "123",
	"runtime.gc_pause_ms":           "123",
	"runtime.heap_peak_mb":          "123",
	"runtime.tracing_overhead_frac": "12",
}

// appliesTo reports whether a per-layer metric's layer runs on workload.
func appliesTo(metric, workload string) bool {
	for i, w := range workloadOrder {
		if w == workload {
			return strings.ContainsRune(layerOn[metric], rune('1'+i))
		}
	}
	return false
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declaration is the parsed BENCHMARK.json: the single source of metric
// names, units, directions and regression bounds for the harness, the
// comparison gate and the tier-1 test.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`

	units map[string]string
}

// repoRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json next to go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no BENCHMARK.json + go.mod above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// loadDeclaration reads BENCHMARK.json from the checkout root.
func loadDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	d := new(declaration)
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	d.units = make(map[string]string)
	for _, m := range d.EndToEnd {
		d.units[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		d.units[m.Name] = m.Unit
	}
	return d, nil
}
