package mpi

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain doubles as the entry point for the subprocess helpers: when
// DPMPI_HELPER is set the binary is a spawned rank, not a test run.
func TestMain(m *testing.M) {
	switch os.Getenv("DPMPI_HELPER") {
	case "":
		os.Exit(m.Run())
	case "rankdeath":
		rankDeathHelper()
	case "allreduce":
		allreduceHelper()
	case "launchexit":
		launchExitHelper()
	default:
		fmt.Fprintln(os.Stderr, "unknown DPMPI_HELPER")
		os.Exit(2)
	}
}

// A frame header may claim up to 1 GiB before one payload byte arrives —
// the rendezvous hello of anything that connects is such a header. A peer
// that claims the maximum and hangs up must cost an error and what the
// bytes that arrived can fill, not the claim.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	local, peer := net.Pipe()
	defer local.Close()
	go func() {
		defer peer.Close()
		if _, err := peer.Write(appendHeader(nil, 1<<30, kindHello, 0)); err != nil {
			t.Error(err)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(local)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("readFrame returned a 1 GiB frame from a 9-byte stream")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("readFrame allocated %d bytes for a frame that never arrived, want < 4 MiB", grew)
	}
}

// runTCPWorlds runs f as n ranks, each with its own TCPWorld over real
// loopback sockets (the cheap way to exercise the wire transport without
// spawning processes; the subprocess tests below cover true isolation).
// It returns the worlds for counter inspection.
func runTCPWorlds(t *testing.T, n int, f func(w *TCPWorld)) []*TCPWorld {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeRendezvous(ln, n)
	coord := ln.Addr().String()

	worlds := make([]*TCPWorld, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := DialTCP(TCPConfig{Rank: rank, Size: n, Coordinator: coord, Listen: "127.0.0.1:0"})
			if err != nil {
				errs[rank] = err
				return
			}
			worlds[rank] = w
			f(w)
			w.Close()
		}(rank)
	}
	wg.Wait()
	ln.Close()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return worlds
}

func TestTCPSendRecvPairwise(t *testing.T) {
	const n = 4
	runTCPWorlds(t, n, func(w *TCPWorld) {
		c := w.Comm()
		for other := 0; other < n; other++ {
			if other == c.Rank() {
				continue
			}
			c.Send(other, 5, []float64{float64(c.Rank())})
			got := c.Recv(other, 5).([]float64)
			if got[0] != float64(other) {
				t.Errorf("rank %d: got %v from %d", c.Rank(), got, other)
			}
		}
	})
}

func TestTCPPayloadTypesRoundTrip(t *testing.T) {
	runTCPWorlds(t, 2, func(w *TCPWorld) {
		c := w.Comm()
		payloads := []any{[]float64{1.5, -2.25}, []int64{1 << 40, -7}, []byte("hi")}
		if c.Rank() == 0 {
			for i, p := range payloads {
				c.Send(1, 10+i, p)
			}
		} else {
			for i, p := range payloads {
				got := c.Recv(0, 10+i)
				if fmt.Sprintf("%T %v", got, got) != fmt.Sprintf("%T %v", p, p) {
					t.Errorf("payload %d: got %v (%T), want %v (%T)", i, got, got, p, p)
				}
			}
		}
	})
}

// The differential at the mpi layer: the same collective program must
// produce bit-identical results on both transports.
func TestTCPCollectivesMatchInProcess(t *testing.T) {
	const n = 4
	program := func(c *Comm, out [][]float64) {
		c.Barrier()
		b := c.Bcast(0, 1, []float64{3.25, -1.5}).([]float64)
		local := []float64{float64(c.Rank()) * 0.1, 1.0 / float64(c.Rank()+3)}
		sum := c.Allreduce(2, local)
		r := c.Iallreduce([]float64{b[0] * float64(c.Rank()+1)})
		isum := r.Wait()
		out[c.Rank()] = append(append(append([]float64(nil), b...), sum...), isum...)
	}

	inproc := make([][]float64, n)
	NewWorld(n).Run(func(c *Comm) { program(c, inproc) })

	tcp := make([][]float64, n)
	runTCPWorlds(t, n, func(w *TCPWorld) { program(w.Comm(), tcp) })

	for r := 0; r < n; r++ {
		if len(inproc[r]) != len(tcp[r]) {
			t.Fatalf("rank %d: lengths differ", r)
		}
		for i := range inproc[r] {
			if inproc[r][i] != tcp[r][i] {
				t.Fatalf("rank %d elem %d: inproc %v tcp %v", r, i, inproc[r][i], tcp[r][i])
			}
		}
	}
}

// Waiting on requests out of order must work over TCP (receives are
// posted eagerly, so a later operation's result arriving first cannot
// trip the tag matcher).
func TestTCPIallreduceSequencing(t *testing.T) {
	runTCPWorlds(t, 3, func(w *TCPWorld) {
		c := w.Comm()
		r1 := c.Iallreduce([]float64{1})
		r2 := c.Iallreduce([]float64{10})
		if got := r2.Wait()[0]; got != 30 {
			t.Errorf("rank %d: second op = %v, want 30", c.Rank(), got)
		}
		if got := r1.Wait()[0]; got != 3 {
			t.Errorf("rank %d: first op = %v, want 3", c.Rank(), got)
		}
	})
}

// The byte-accounting invariant the benchmarks rely on: the bytes the
// transport actually framed onto the sockets equal the logical payload
// bytes plus the fixed header per message.
func TestTCPWireBytesReconcile(t *testing.T) {
	const n = 3
	worlds := runTCPWorlds(t, n, func(w *TCPWorld) {
		c := w.Comm()
		c.Barrier()
		c.Allreduce(3, []float64{1, 2, 3})
		for other := 0; other < n; other++ {
			if other != c.Rank() {
				c.Send(other, 9, []byte{1, 2, 3, 4, 5})
				c.Recv(other, 9)
			}
		}
	})
	for r, w := range worlds {
		if w.Messages() == 0 {
			t.Fatalf("rank %d: no messages counted", r)
		}
		want := w.Bytes() + FrameOverhead*w.Messages()
		if w.WireBytes() != want {
			t.Errorf("rank %d: WireBytes %d, want Bytes %d + %d×Messages %d = %d",
				r, w.WireBytes(), w.Bytes(), FrameOverhead, w.Messages(), want)
		}
		c := w.Comm()
		if c.SentMessages() != w.Messages() || c.SentBytes() != w.Bytes() {
			t.Errorf("rank %d: comm counters (%d, %d) disagree with world (%d, %d)",
				r, c.SentMessages(), c.SentBytes(), w.Messages(), w.Bytes())
		}
	}
}

// A tag mismatch at the head of a source's queue — with nobody posted for
// the head's tag — is a protocol error over the wire, mirroring the
// in-process transport's panic.
func TestTCPTagMismatchProtocolError(t *testing.T) {
	var mu sync.Mutex
	var panics []string
	runTCPWorlds(t, 2, func(w *TCPWorld) {
		c := w.Comm()
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				panics = append(panics, fmt.Sprint(p))
				mu.Unlock()
			}
		}()
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1})
			// Block until the peer's failure tears the world down.
			c.Recv(1, 8)
		} else {
			// Give the tag-7 frame time to land in the queue, then post a
			// mismatched receive against it.
			time.Sleep(50 * time.Millisecond)
			c.Recv(0, 99)
		}
	})
	if len(panics) == 0 {
		t.Fatal("tag mismatch did not trip the protocol error")
	}
	joined := strings.Join(panics, "; ")
	if !strings.Contains(joined, "protocol error") && !strings.Contains(joined, "aborted") {
		t.Fatalf("unexpected panics: %s", joined)
	}
}

// Regression for the collective aliasing bug: every rank must own the
// slice Allreduce hands back, so one rank mutating its result cannot
// corrupt another's.
func TestAllreduceRecipientIsolation(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		sum := c.Allreduce(1, []float64{1, 2})
		c.Barrier()
		if c.Rank() == 1 {
			sum[0] = -999 // must stay private to rank 1
		}
		c.Barrier()
		if c.Rank() != 1 {
			if sum[0] != n || sum[1] != 2*n {
				t.Errorf("rank %d sees mutated sum %v", c.Rank(), sum)
			}
		}
	})
}

// Same regression for Bcast: recipients must not alias the root's payload
// (nor each other's).
func TestBcastRecipientIsolation(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	root := []float64{5, 6}
	w.Run(func(c *Comm) {
		got := c.Bcast(0, 2, root).([]float64)
		c.Barrier()
		if c.Rank() == 2 {
			got[0] = -999
		}
		c.Barrier()
		if c.Rank() != 2 {
			if got[0] != 5 || got[1] != 6 {
				t.Errorf("rank %d sees mutated bcast %v", c.Rank(), got)
			}
		}
	})
	if root[0] != 5 {
		t.Fatalf("root payload mutated: %v", root)
	}
}

// --- subprocess tests: true multi-process worlds ---

// spawnRanks starts n copies of this test binary in the given helper
// mode, with a rendezvous served by the test, and returns the commands
// (already started) plus their stdout buffers.
func spawnRanks(t *testing.T, n int, mode string, extraEnv func(rank int) []string) ([]*exec.Cmd, []*strings.Builder) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ServeRendezvous(ln, n)
	coord := ln.Addr().String()

	cmds := make([]*exec.Cmd, n)
	outs := make([]*strings.Builder, n)
	for rank := 0; rank < n; rank++ {
		cmd := exec.Command(os.Args[0], "-test.run=XXX_none")
		cmd.Env = append(os.Environ(),
			"DPMPI_HELPER="+mode,
			"DPMPI_RANK="+strconv.Itoa(rank),
			"DPMPI_SIZE="+strconv.Itoa(n),
			"DPMPI_COORD="+coord,
		)
		if extraEnv != nil {
			cmd.Env = append(cmd.Env, extraEnv(rank)...)
		}
		outs[rank] = &strings.Builder{}
		cmd.Stdout = outs[rank]
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[rank] = cmd
	}
	return cmds, outs
}

func helperConfig() TCPConfig {
	rank, _ := strconv.Atoi(os.Getenv("DPMPI_RANK"))
	size, _ := strconv.Atoi(os.Getenv("DPMPI_SIZE"))
	return TCPConfig{Rank: rank, Size: size, Coordinator: os.Getenv("DPMPI_COORD"), Listen: "127.0.0.1:0"}
}

// allreduceHelper: dial, allreduce, verify, print, exit 0.
func allreduceHelper() {
	w, err := DialTCP(helperConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c := w.Comm()
	sum := c.Allreduce(1, []float64{float64(c.Rank() + 1)})
	want := float64(c.Size()*(c.Size()+1)) / 2
	if sum[0] != want {
		fmt.Fprintf(os.Stderr, "rank %d: sum %v want %v\n", c.Rank(), sum, want)
		os.Exit(1)
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("SUM-OK %v\n", sum[0])
	os.Exit(0)
}

// Real processes over real sockets, meshed by the rendezvous.
func TestTCPMultiProcessAllreduce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const n = 4
	cmds, outs := spawnRanks(t, n, "allreduce", nil)
	for rank, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if !strings.Contains(outs[rank].String(), "SUM-OK 10") {
			t.Fatalf("rank %d output: %q", rank, outs[rank].String())
		}
	}
}

// rankDeathHelper: rank 1 dies mid-exchange; the survivors must unblock
// with the abort error instead of deadlocking (World.Abort semantics).
func rankDeathHelper() {
	w, err := DialTCP(helperConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c := w.Comm()
	// The abort may land while a survivor is still inside the barrier (the
	// dead rank's EOF races the barrier release), so the recover guards
	// both blocking calls: unblocking with the abort error — wherever the
	// rank happened to be blocked — is exactly the semantics under test.
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok && strings.Contains(err.Error(), "aborted") {
				fmt.Println("UNBLOCKED-OK")
				os.Exit(0)
			}
			fmt.Fprintf(os.Stderr, "unexpected panic: %v\n", p)
			os.Exit(1)
		}
	}()
	c.Barrier() // everyone meshed and alive
	if c.Rank() == 1 {
		os.Exit(3) // die without a bye frame: an abrupt crash
	}
	c.Recv(1, 12) // blocks forever unless the death aborts the world
	fmt.Fprintln(os.Stderr, "recv from dead rank returned")
	os.Exit(1)
}

func TestTCPRankDeathUnblocksPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const n = 3
	cmds, outs := spawnRanks(t, n, "rankdeath", nil)
	for rank, cmd := range cmds {
		err := cmd.Wait()
		if rank == 1 {
			if err == nil {
				t.Fatal("rank 1 was supposed to die")
			}
			continue
		}
		if err != nil {
			t.Fatalf("rank %d did not unblock cleanly: %v (output %q)", rank, err, outs[rank].String())
		}
		if !strings.Contains(outs[rank].String(), "UNBLOCKED-OK") {
			t.Fatalf("rank %d output: %q", rank, outs[rank].String())
		}
	}
}

// The launcher end-to-end: spawn ranks with LaunchLocal's own rendezvous.
func TestLaunchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const n = 3
	err := LaunchLocal(n, func(rank int, coord string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=XXX_none")
		cmd.Env = append(os.Environ(),
			"DPMPI_HELPER=allreduce",
			"DPMPI_RANK="+strconv.Itoa(rank),
			"DPMPI_SIZE="+strconv.Itoa(n),
			"DPMPI_COORD="+coord,
		)
		cmd.Stderr = os.Stderr
		return cmd
	})
	if err != nil {
		t.Fatal(err)
	}
}
