package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags pins the flag check run() applies before it builds the
// model: values the batcher or server would silently replace with their
// defaults are rejected with the offending flag named.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name            string
		maxBatch, queue int
		timeout         time.Duration
		flag            string // "" when the flags must pass
	}{
		{"defaults", 8, 0, 30 * time.Second, ""},
		{"max-batch=1", 1, 0, time.Second, ""},
		{"explicit queue", 4, 3, time.Millisecond, ""},
		{"max-batch=0", 0, 0, time.Second, "-max-batch"},
		{"max-batch=-3", -3, 0, time.Second, "-max-batch"},
		{"queue=-7", 8, -7, time.Second, "-queue"},
		{"request-timeout=0", 8, 0, 0, "-request-timeout"},
		{"request-timeout=-5s", 8, 0, -5 * time.Second, "-request-timeout"},
	} {
		err := checkFlags(c.maxBatch, c.queue, c.timeout)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: accepted, want a %s error", c.name, c.flag)
		case c.flag != "" && !strings.HasPrefix(err.Error(), c.flag+" "):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.flag)
		}
	}
}

// The engine's -concurrency is the only dispatch bound: the removed
// -dispatchers flag is a usage error.
func TestDispatchersFlagRemoved(t *testing.T) {
	if code := run([]string{"-dispatchers", "2"}, io.Discard); code != 2 {
		t.Fatalf("dpserve -dispatchers 2 exited %d, want 2", code)
	}
}
