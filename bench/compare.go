package main

import (
	"fmt"
	"io"
)

// values returns a metric's value in every run of one workload and pass.
func (doc *document) values(workload, name string, trace bool) []float64 {
	var out []float64
	for i := range doc.Runs {
		r := &doc.Runs[i]
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.get(name); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// failFrac returns failed/attempted over the untraced runs of a workload.
func (doc *document) failFrac(workload string) (frac float64, runs int) {
	var failed, attempted int
	for i := range doc.Runs {
		if r := &doc.Runs[i]; r.Workload == workload && !r.Trace {
			failed += r.Failed
			attempted += r.Attempted
			runs++
		}
	}
	if attempted == 0 {
		return 0, runs
	}
	return float64(failed) / float64(attempted), runs
}

// compareFiles is the regression gate: one row per (workload, end-to-end
// metric) with both medians, their ratio and a verdict against the bound
// BENCHMARK.json fixes. A metric whose own run-to-run spread in either file
// exceeds its bound cannot be judged and reads "unresolved". Per-layer
// metrics are printed for attribution and never gated. A workload or metric
// the old file has and the new one lost reads "missing". The exit code is 1
// on any regressed or missing row, any fail_frac increase, or two files
// that are not comparable (seed, run length or smoke sizing differ).
func compareFiles(d *declaration, oldPath, newPath string, stdout, stderr io.Writer) int {
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareDocs(d, oldDoc, newDoc, stdout)
}

// sameMeasurement refuses two documents that did not measure the same thing:
// another seed is another input set, and other operation counts or smoke
// sizing are another run length.
func sameMeasurement(oldDoc, newDoc *document) error {
	switch {
	case oldDoc.Seed != newDoc.Seed:
		return fmt.Errorf("seed %d vs %d", oldDoc.Seed, newDoc.Seed)
	case oldDoc.Smoke != newDoc.Smoke:
		return fmt.Errorf("smoke %v vs %v", oldDoc.Smoke, newDoc.Smoke)
	case oldDoc.Seconds != newDoc.Seconds:
		return fmt.Errorf("seconds %d vs %d", oldDoc.Seconds, newDoc.Seconds)
	}
	for wl, n := range oldDoc.OpCounts {
		if m, ok := newDoc.OpCounts[wl]; ok && m != n {
			return fmt.Errorf("%s op count %d vs %d", wl, n, m)
		}
	}
	return nil
}

func compareDocs(d *declaration, oldDoc, newDoc *document, w io.Writer) int {
	if err := sameMeasurement(oldDoc, newDoc); err != nil {
		fmt.Fprintf(w, "not comparable: %v\n", err)
		return 1
	}
	if oldDoc.Host.CPUModel != newDoc.Host.CPUModel || oldDoc.Host.NumCPU != newDoc.Host.NumCPU || oldDoc.Host.KernelFamily != newDoc.Host.KernelFamily {
		fmt.Fprintf(w, "warning: host fingerprints differ (%s/%d cpus/%s vs %s/%d cpus/%s); timings are not comparable\n",
			oldDoc.Host.CPUModel, oldDoc.Host.NumCPU, oldDoc.Host.KernelFamily, newDoc.Host.CPUModel, newDoc.Host.NumCPU, newDoc.Host.KernelFamily)
	}
	regressed, rows := 0, 0
	fmt.Fprintf(w, "%-22s %-18s %12s %12s %7s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "ratio", "spread", "bound", "verdict")
	for _, wl := range d.Workloads {
		for _, m := range d.EndToEnd {
			ov, nv := oldDoc.values(wl.Name, m.Name, false), newDoc.values(wl.Name, m.Name, false)
			if len(ov) == 0 {
				continue // nothing to gate against
			}
			rows++
			if len(nv) == 0 {
				// A lost workload or metric is not a pass.
				regressed++
				fmt.Fprintf(w, "%-22s %-18s %12.6g %12s %7s %7s %6.1f%%  missing (n=%d,0)\n", wl.Name, m.Name, median(ov), "-", "", "", 100*m.Bound, len(ov))
				continue
			}
			om, nm := median(ov), median(nv)
			worse := (nm - om) / om
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(ov), spread(nv))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-22s %-18s %12.6g %12.6g %7.3f %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, om, nm, nm/om, 100*sp, 100*m.Bound, verdict, len(ov), len(nv))
		}
		of, on := oldDoc.failFrac(wl.Name)
		nf, nn := newDoc.failFrac(wl.Name)
		if on > 0 && nn > 0 {
			verdict := "ok"
			if nf > of {
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-22s %-18s %12.6g %12.6g %7s %7s %7s  %s (n=%d,%d)\n", wl.Name, "fail_frac", of, nf, "", "", "0", verdict, on, nn)
		}
	}
	header := false
	for _, wl := range d.Workloads {
		for _, m := range d.PerLayer {
			ov, nv := oldDoc.values(wl.Name, m.Name, true), newDoc.values(wl.Name, m.Name, true)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\nper-layer metrics (attribution only, never gated)\n")
				header = true
			}
			fmt.Fprintf(w, "%-22s %-30s %12.6g %12.6g %7.3f %-8s (n=%d,%d)\n", wl.Name, m.Name, median(ov), median(nv), median(nv)/median(ov), m.Unit, len(ov), len(nv))
		}
	}
	if rows == 0 && !header {
		fmt.Fprintln(w, "\nthe old file shares no metric with BENCHMARK.json: nothing was compared")
		return 1
	}
	if regressed > 0 {
		fmt.Fprintf(w, "\n%d regressed or missing\n", regressed)
		return 1
	}
	return 0
}
