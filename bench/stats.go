package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for
// even counts); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1): the
// smallest sample with at least p of the samples at or below it. With 100
// samples, p = 0.9 leaves exactly ten samples beyond the reported one.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quietWindows is the number of equal, contiguous windows a run's samples are
// cut into for quietPercentile.
const quietWindows = 10

// quietPercentile is the statistic behind step_ms_p50 and step_ms_p90: the
// p-th percentile inside each of the run's quietWindows windows, then the
// lower quartile of those. On the shared reference box a neighbour's load
// arrives in bursts of seconds that only ever add time, so the plain p90 of a
// run reads how many windows a burst hit; the quieter windows read the
// program. A tail the program itself produces shows in every window and so
// still moves the number. Samples past the last whole window are left out;
// fewer than two samples per window (-smoke) fall back to the plain
// percentile.
func quietPercentile(v []float64, p float64) float64 {
	size := len(v) / quietWindows
	if size < 2 {
		return percentile(v, p)
	}
	perWindow := make([]float64, quietWindows)
	for w := range perWindow {
		perWindow[w] = percentile(v[w*size:(w+1)*size], p)
	}
	return percentile(perWindow, 0.25)
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does — the
// rule the regression gate's spread is defined by. Needs two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		return median(v), median(v)
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}
