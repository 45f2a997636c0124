// Package perf provides the measurement layer of the library: wall-clock
// timers, analytic FLOP accounting and per-operator-category time
// accounting.
//
// The paper measures FLOPs with NVIDIA NVPROF and reports a percent-stacked
// breakdown of GPU time per TensorFlow operator class (Fig. 3). This package
// is the CPU substitute: every kernel in internal/tensor and
// internal/descriptor reports its FLOPs analytically and its elapsed time
// under one of the categories below, so the same tables and figures can be
// regenerated.
package perf

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Category classifies an operator the same way Fig. 3 of the paper does.
type Category int

const (
	// CatGEMM covers matrix-matrix multiplication (MATMUL and the fused
	// GEMM operators).
	CatGEMM Category = iota
	// CatTANH covers activation and activation-gradient kernels.
	CatTANH
	// CatSLICE covers bandwidth-bound data movement: slicing, concat,
	// padding, format conversion.
	CatSLICE
	// CatCUSTOM covers the customized operators: Environment, ProdForce,
	// ProdVirial and neighbor-list formatting.
	CatCUSTOM
	// CatOther covers everything else (reductions, bias adds, copies).
	CatOther

	numCategories
)

// String returns the Fig. 3 label for the category.
func (c Category) String() string {
	switch c {
	case CatGEMM:
		return "GEMM"
	case CatTANH:
		return "TANH"
	case CatSLICE:
		return "SLICE"
	case CatCUSTOM:
		return "CUSTOM"
	default:
		return "Others"
	}
}

// Tier names the GEMM engine of internal/tensor that served a call — the
// kernel-family attribution of a step's GEMM FLOPs.
type Tier int

const (
	// TierStrip is the tall-skinny SIMD strip kernels (K-panelled).
	TierStrip Tier = iota
	// TierDot is the SIMD dot-product tile of the A*B^T variant.
	TierDot
	// TierNaive is the reference loops: Kernel = Naive, or a layer no
	// SIMD kernel covers.
	TierNaive

	numTiers
)

// String returns the tier's report label.
func (t Tier) String() string {
	switch t {
	case TierStrip:
		return "strip"
	case TierDot:
		return "dot"
	default:
		return "naive"
	}
}

// Counter accumulates FLOPs, per-category wall time and per-tier GEMM
// FLOPs. It is safe for concurrent use; all fields are updated atomically
// so rank goroutines can share one counter.
type Counter struct {
	flops     atomic.Int64
	catTime   [numCategories]atomic.Int64 // nanoseconds
	tierFLOPs [numTiers]atomic.Int64
}

// NewCounter returns a zeroed Counter.
func NewCounter() *Counter { return &Counter{} }

// AddFLOPs records n floating point operations.
func (c *Counter) AddFLOPs(n int64) {
	if c != nil {
		c.flops.Add(n)
	}
}

// AddTime records elapsed wall time under the given category.
func (c *Counter) AddTime(cat Category, d time.Duration) {
	if c != nil {
		c.catTime[cat].Add(int64(d))
	}
}

// Now stamps the start of a kernel invocation for Observe: the current time
// when a counter is attached, the zero Time when c is nil, so an uncounted
// call does not read the clock.
func (c *Counter) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// Observe records both time and FLOPs for one kernel invocation.
func (c *Counter) Observe(cat Category, start time.Time, flops int64) {
	if c == nil {
		return
	}
	c.catTime[cat].Add(int64(time.Since(start)))
	c.flops.Add(flops)
}

// ObserveGEMM is Observe(CatGEMM, ...) that also credits the call's FLOPs
// to the tier that served it.
func (c *Counter) ObserveGEMM(tier Tier, start time.Time, flops int64) {
	if c == nil {
		return
	}
	c.Observe(CatGEMM, start, flops)
	c.tierFLOPs[tier].Add(flops)
}

// TierFLOPs returns the GEMM FLOPs served by one tier.
func (c *Counter) TierFLOPs(t Tier) int64 {
	if c == nil {
		return 0
	}
	return c.tierFLOPs[t].Load()
}

// TierShares returns each tier's fraction of the recorded GEMM FLOPs,
// keyed by Tier.String(); all zero when no GEMM was recorded.
func (c *Counter) TierShares() map[string]float64 {
	out := make(map[string]float64, numTiers)
	var total int64
	for t := Tier(0); t < numTiers; t++ {
		total += c.TierFLOPs(t)
	}
	for t := Tier(0); t < numTiers; t++ {
		f := 0.0
		if total > 0 {
			f = float64(c.TierFLOPs(t)) / float64(total)
		}
		out[t.String()] = f
	}
	return out
}

// FLOPs returns the accumulated floating point operation count.
func (c *Counter) FLOPs() int64 {
	if c == nil {
		return 0
	}
	return c.flops.Load()
}

// CategoryTime returns the accumulated wall time for one category.
func (c *Counter) CategoryTime(cat Category) time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.catTime[cat].Load())
}

// TotalTime returns the summed wall time across all categories.
func (c *Counter) TotalTime() time.Duration {
	var t time.Duration
	for i := Category(0); i < numCategories; i++ {
		t += c.CategoryTime(i)
	}
	return t
}

// Breakdown returns the percentage of operator time spent in each category,
// in the order GEMM, TANH, SLICE, CUSTOM, Others. Percentages sum to 100
// unless no time was recorded, in which case all are zero.
func (c *Counter) Breakdown() map[string]float64 {
	out := make(map[string]float64, numCategories)
	total := c.TotalTime()
	for i := Category(0); i < numCategories; i++ {
		p := 0.0
		if total > 0 {
			p = 100 * float64(c.CategoryTime(i)) / float64(total)
		}
		out[i.String()] = p
	}
	return out
}

// BreakdownString formats the category breakdown as a single line, largest
// first, e.g. "GEMM 63.1% TANH 12.0% ...".
func (c *Counter) BreakdownString() string {
	b := c.Breakdown()
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return b[keys[i]] > b[keys[j]] })
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s %.1f%%", k, b[k])
	}
	return sb.String()
}

// Reset zeroes all counters.
func (c *Counter) Reset() {
	c.flops.Store(0)
	for i := range c.catTime {
		c.catTime[i].Store(0)
	}
	for i := range c.tierFLOPs {
		c.tierFLOPs[i].Store(0)
	}
}

// Timer measures named phases of a run (setup, MD loop, IO) the way the
// paper separates "setup time" from "MD loop time" (Sec. 6.3 and 7.3).
type Timer struct {
	mu     sync.Mutex
	phases map[string]time.Duration
	starts map[string]time.Time
}

// NewTimer returns an empty Timer.
func NewTimer() *Timer {
	return &Timer{
		phases: make(map[string]time.Duration),
		starts: make(map[string]time.Time),
	}
}

// Start begins (or resumes) the named phase.
func (t *Timer) Start(phase string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.starts[phase] = time.Now()
}

// Stop ends the named phase and accumulates its elapsed time. Stopping a
// phase that was never started is a no-op.
func (t *Timer) Stop(phase string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.starts[phase]; ok {
		t.phases[phase] += time.Since(s)
		delete(t.starts, phase)
	}
}

// Elapsed returns the accumulated time for the named phase.
func (t *Timer) Elapsed(phase string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phases[phase]
}

// Phases returns a copy of all accumulated phase times.
func (t *Timer) Phases() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.phases))
	for k, v := range t.phases {
		out[k] = v
	}
	return out
}
