package perf

import (
	"sync"
	"testing"
	"time"
)

func TestCounterAccumulates(t *testing.T) {
	c := NewCounter()
	c.AddFLOPs(100)
	c.AddFLOPs(50)
	if c.FLOPs() != 150 {
		t.Fatalf("FLOPs = %d", c.FLOPs())
	}
	c.AddTime(CatGEMM, 10*time.Millisecond)
	c.AddTime(CatTANH, 5*time.Millisecond)
	c.AddTime(CatGEMM, 10*time.Millisecond)
	if got := c.CategoryTime(CatGEMM); got != 20*time.Millisecond {
		t.Fatalf("GEMM time = %v", got)
	}
	if got := c.TotalTime(); got != 25*time.Millisecond {
		t.Fatalf("total = %v", got)
	}
}

func TestBreakdownSumsTo100(t *testing.T) {
	c := NewCounter()
	c.AddTime(CatGEMM, 60*time.Millisecond)
	c.AddTime(CatTANH, 25*time.Millisecond)
	c.AddTime(CatCUSTOM, 15*time.Millisecond)
	b := c.Breakdown()
	var sum float64
	for _, v := range b {
		sum += v
	}
	if sum < 99.999 || sum > 100.001 {
		t.Fatalf("breakdown sums to %g", sum)
	}
	if b["GEMM"] != 60 {
		t.Fatalf("GEMM share %g", b["GEMM"])
	}
}

func TestEmptyBreakdownIsZero(t *testing.T) {
	c := NewCounter()
	for _, v := range c.Breakdown() {
		if v != 0 {
			t.Fatalf("empty counter reports %g%%", v)
		}
	}
}

func TestNilCounterIsSafe(t *testing.T) {
	var c *Counter
	c.AddFLOPs(1)
	c.AddTime(CatGEMM, time.Second)
	c.Observe(CatTANH, time.Now(), 5)
	c.ObserveGEMM(TierStrip, time.Now(), 5)
	if c.FLOPs() != 0 || c.CategoryTime(CatGEMM) != 0 || c.TierFLOPs(TierStrip) != 0 {
		t.Fatal("nil counter should be inert")
	}
	if !c.Now().IsZero() {
		t.Fatal("nil counter read the clock")
	}
	if NewCounter().Now().IsZero() {
		t.Fatal("attached counter returned no start time")
	}
}

func TestCounterConcurrency(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddFLOPs(1)
				c.AddTime(CatOther, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.FLOPs() != 8000 {
		t.Fatalf("concurrent FLOPs = %d", c.FLOPs())
	}
}

func TestCounterReset(t *testing.T) {
	c := NewCounter()
	c.AddFLOPs(5)
	c.AddTime(CatSLICE, time.Second)
	c.ObserveGEMM(TierNaive, time.Now(), 7)
	c.Reset()
	if c.FLOPs() != 0 || c.TotalTime() != 0 || c.TierFLOPs(TierNaive) != 0 {
		t.Fatal("reset incomplete")
	}
}

// ObserveGEMM credits one call's FLOPs three ways: the total, the GEMM
// category's time, and the serving tier.
func TestObserveGEMMTiers(t *testing.T) {
	c := NewCounter()
	for _, s := range c.TierShares() {
		if s != 0 {
			t.Fatalf("empty counter reports a tier share of %g", s)
		}
	}
	c.ObserveGEMM(TierStrip, time.Now().Add(-time.Millisecond), 300)
	c.ObserveGEMM(TierDot, time.Now(), 100)
	c.Observe(CatCUSTOM, time.Now(), 1000) // not a GEMM: no tier
	if c.FLOPs() != 1400 || c.CategoryTime(CatGEMM) < time.Millisecond {
		t.Fatalf("FLOPs %d, GEMM time %v", c.FLOPs(), c.CategoryTime(CatGEMM))
	}
	if c.TierFLOPs(TierStrip) != 300 || c.TierFLOPs(TierDot) != 100 || c.TierFLOPs(TierNaive) != 0 {
		t.Fatalf("tier FLOPs strip %d dot %d naive %d", c.TierFLOPs(TierStrip), c.TierFLOPs(TierDot), c.TierFLOPs(TierNaive))
	}
	sh := c.TierShares()
	if len(sh) != 3 || sh["strip"] != 0.75 || sh["dot"] != 0.25 || sh["naive"] != 0 {
		t.Fatalf("tier shares %v", sh)
	}
}

func TestCategoryNames(t *testing.T) {
	wants := map[Category]string{
		CatGEMM: "GEMM", CatTANH: "TANH", CatSLICE: "SLICE",
		CatCUSTOM: "CUSTOM", CatOther: "Others",
	}
	for c, w := range wants {
		if c.String() != w {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), w)
		}
	}
}
