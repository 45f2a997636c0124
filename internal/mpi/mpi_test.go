package mpi

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSendRecvOrder(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1})
			c.Send(1, 7, []float64{2})
		} else {
			a := c.Recv(0, 7).([]float64)
			b := c.Recv(0, 7).([]float64)
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("out of order: %v %v", a, b)
			}
		}
	})
}

func TestSendRecvPairwiseExchange(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		partner := c.Rank() ^ 1
		c.Send(partner, 3, []int64{int64(c.Rank())})
		got := c.Recv(partner, 3).([]int64)
		if got[0] != int64(partner) {
			t.Errorf("rank %d got %d", c.Rank(), got[0])
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld(8)
	var before, after atomic.Int32
	w.Run(func(c *Comm) {
		before.Add(1)
		c.Barrier()
		if before.Load() != 8 {
			t.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), before.Load())
		}
		after.Add(1)
	})
	if after.Load() != 8 {
		t.Fatalf("after = %d", after.Load())
	}
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		for i := 0; i < 50; i++ {
			c.Barrier()
		}
	})
}

func TestBcast(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		var payload []float64
		if c.Rank() == 2 {
			payload = []float64{3.14, 2.72}
		}
		got := c.Bcast(2, 9, payload).([]float64)
		if got[0] != 3.14 || got[1] != 2.72 {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			vals := []float64{float64(c.Rank()), 1}
			got := c.Allreduce(4, vals)
			wantFirst := float64(p*(p-1)) / 2
			if got[0] != wantFirst || got[1] != float64(p) {
				t.Errorf("p=%d rank %d: got %v", p, c.Rank(), got)
			}
		})
	}
}

// Property: Allreduce equals the serial sum for random vectors.
func TestAllreduceProperty(t *testing.T) {
	f := func(a, b, cv float64) bool {
		w := NewWorld(3)
		inputs := [][]float64{{a}, {b}, {cv}}
		ok := true
		w.Run(func(c *Comm) {
			got := c.Allreduce(1, inputs[c.Rank()])
			want := a + b + cv
			if math.Abs(got[0]-want) > 1e-9*(1+math.Abs(want)) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIallreduceOverlapsComputation(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		req := c.Iallreduce([]float64{float64(c.Rank() + 1)})
		// Do "work" before waiting: the request must not force sync.
		time.Sleep(time.Millisecond)
		got := req.Wait()
		if got[0] != 10 { // 1+2+3+4
			t.Errorf("rank %d: got %v", c.Rank(), got)
		}
	})
}

func TestIallreduceSequencing(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		r1 := c.Iallreduce([]float64{1})
		r2 := c.Iallreduce([]float64{10})
		if got := r2.Wait(); got[0] != 30 {
			t.Errorf("second op = %v", got)
		}
		if got := r1.Wait(); got[0] != 3 {
			t.Errorf("first op = %v", got)
		}
	})
}

func TestIallreduceDone(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		req := c.Iallreduce([]float64{1})
		// After both ranks contributed, Done must eventually be true.
		res := req.Wait()
		if !req.Done() {
			t.Error("Done false after Wait")
		}
		if res[0] != 2 {
			t.Errorf("sum %v", res)
		}
	})
}

func TestCounters(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1, 2, 3})
		} else {
			c.Recv(0, 1)
		}
	})
	if w.Messages() != 1 {
		t.Fatalf("messages = %d", w.Messages())
	}
	if w.Bytes() != 24 {
		t.Fatalf("bytes = %d", w.Bytes())
	}
	for r, want := range []int64{24, 0} {
		if got := w.comms[r].SentBytes(); got != want {
			t.Fatalf("rank %d sent %d bytes, want %d", r, got, want)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic propagation")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestTagMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected tag mismatch panic")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{0})
		} else {
			c.Recv(0, 2)
		}
	})
}
