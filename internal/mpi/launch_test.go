package mpi

import (
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// A rank that fails while its sibling still runs: LaunchLocal kills and
// reaps the sibling and returns the failed rank's own exit status, not the
// kill it caused in the rank ordered before it.
func TestLaunchLocalReturnsFirstFailure(t *testing.T) {
	var mu sync.Mutex
	cmds := make([]*exec.Cmd, 2)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range cmds {
			if c != nil && c.Process != nil && c.ProcessState == nil {
				c.Process.Kill()
			}
		}
	})
	done := make(chan error, 1)
	go func() {
		done <- LaunchLocal(2, func(rank int, _ string) *exec.Cmd {
			cmd := exec.Command(os.Args[0], "-test.run=XXX_none")
			cmd.Env = append(os.Environ(), "DPMPI_HELPER=launchexit", "DPMPI_RANK="+strconv.Itoa(rank))
			mu.Lock()
			cmds[rank] = cmd
			mu.Unlock()
			return cmd
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("LaunchLocal still waiting 30 s after rank 1 exited")
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("LaunchLocal returned %v, want rank 1's exit status 2", err)
	}
	if !strings.HasPrefix(err.Error(), "rank 1:") {
		t.Fatalf("error %q does not name rank 1", err)
	}
	mu.Lock()
	ps := cmds[0].ProcessState
	mu.Unlock()
	if ps == nil {
		t.Fatal("rank 0 was not reaped")
	}
	if ps.Exited() {
		t.Fatalf("rank 0 exited on its own (%v), want it killed", ps)
	}
}

// launchExitHelper: rank 1 exits 2 at once; rank 0 blocks until killed
// (or for a minute, so a broken launcher leaves nothing behind for long).
func launchExitHelper() {
	if os.Getenv("DPMPI_RANK") == "1" {
		os.Exit(2)
	}
	time.Sleep(time.Minute)
	os.Exit(0)
}
