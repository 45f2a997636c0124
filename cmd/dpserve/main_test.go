package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags pins the flag check run() applies before it builds the
// model: values the queue or server would silently replace with their
// defaults are rejected with the offending flag named.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name    string
		queue   int
		timeout time.Duration
		flag    string // "" when the flags must pass
	}{
		{"defaults", 0, 30 * time.Second, ""},
		{"explicit queue", 3, time.Millisecond, ""},
		{"queue=-7", -7, time.Second, "-queue"},
		{"request-timeout=0", 0, 0, "-request-timeout"},
		{"request-timeout=-5s", 0, -5 * time.Second, "-request-timeout"},
	} {
		err := checkFlags(c.queue, c.timeout)
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

// Every force call serves one frame: the removed -max-batch flag is a
// usage error.
func TestMaxBatchFlagRemoved(t *testing.T) {
	if code := run([]string{"-max-batch", "8"}, io.Discard); code != 2 {
		t.Fatalf("dpserve -max-batch 8 exited %d, want 2", code)
	}
}
