package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckFlags pins the flag check run() applies before it builds the
// model: values the batcher or server would silently replace with their
// defaults are rejected with the offending flag named.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name                  string
		maxBatch, queue, disp int
		timeout               time.Duration
		flag                  string // "" when the flags must pass
	}{
		{"defaults", 8, 0, 0, 30 * time.Second, ""},
		{"max-batch=1", 1, 0, 0, time.Second, ""},
		{"explicit queue and dispatchers", 4, 3, 2, time.Millisecond, ""},
		{"max-batch=0", 0, 0, 0, time.Second, "-max-batch"},
		{"max-batch=-3", -3, 0, 0, time.Second, "-max-batch"},
		{"queue=-7", 8, -7, 0, time.Second, "-queue"},
		{"dispatchers=-1", 8, 0, -1, time.Second, "-dispatchers"},
		{"request-timeout=0", 8, 0, 0, 0, "-request-timeout"},
		{"request-timeout=-5s", 8, 0, 0, -5 * time.Second, "-request-timeout"},
	} {
		err := checkFlags(c.maxBatch, c.queue, c.disp, c.timeout)
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
