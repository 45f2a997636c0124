package mpi

import (
	"fmt"
	"net"
	"os/exec"
	"sync"
)

// LaunchLocal is the single-machine launcher: it serves a rendezvous on a
// loopback port, spawns one process per rank via build (which receives
// the rank and the coordinator address to pass on the child's command
// line or environment), and waits for all of them. On the first failure
// the remaining children are killed — a dead rank must tear the world
// down, not leave siblings waiting on a socket forever — and that first
// failure is the error returned, naming its rank and wrapping its
// *exec.ExitError: the ranks killed after it report only the kill.
func LaunchLocal(n int, build func(rank int, coord string) *exec.Cmd) error {
	if n < 1 {
		return fmt.Errorf("mpi: launch needs >= 1 rank, got %d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("mpi: coordinator listener: %w", err)
	}
	defer ln.Close()
	go ServeRendezvous(ln, n)

	coord := ln.Addr().String()
	cmds := make([]*exec.Cmd, n)
	for rank := 0; rank < n; rank++ {
		cmds[rank] = build(rank, coord)
	}
	for rank, cmd := range cmds {
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:rank] {
				c.Process.Kill()
			}
			return fmt.Errorf("mpi: starting rank %d: %w", rank, err)
		}
	}

	var first error
	var wg sync.WaitGroup
	var once sync.Once
	for rank, cmd := range cmds {
		wg.Add(1)
		go func(rank int, cmd *exec.Cmd) {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				once.Do(func() {
					first = fmt.Errorf("rank %d: %w", rank, err)
					for other, c := range cmds {
						if other != rank {
							c.Process.Kill()
						}
					}
				})
			}
		}(rank, cmd)
	}
	wg.Wait()
	return first
}
