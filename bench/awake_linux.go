//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: its tasks run only on a CPU with
// nothing else to run, and anything that wakes there preempts them at once.
const schedIdle = 5

// awakeLine is what a -keep-awake child prints once it spins at idle
// priority.
const awakeLine = "awake\n"

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, errno
	}
	var cpus []int
	for i := 0; i < 64*len(mask); i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// keepAwake holds every CPU of the box busy at idle priority until the
// returned stop is called: one -keep-awake child of the harness per CPU.
// The box is a few vCPUs of a shared host; a vCPU that halts (a rank waiting
// for a message, a worker waiting at a barrier) is handed to another guest,
// and getting it back costs whatever the host's load is at that moment —
// the run-to-run "weather" that otherwise dominates the short-step
// workloads. The children never take a cycle the program under test wants.
// keepAwake returns once every child has said it is spinning at idle
// priority.
func keepAwake() (stop func(), err error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	var stdins []io.Closer
	var waits []func() error
	stop = func() {
		for _, in := range stdins {
			in.Close() // end of input is the child's signal to exit
		}
		for _, wait := range waits {
			wait()
		}
	}
	for _, cpu := range cpus {
		cmd := selfCommand("-keep-awake", fmt.Sprint(cpu))
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stop()
			return nil, err
		}
		stdins = append(stdins, in)
		waits = append(waits, cmd.Wait)
		if line, _ := bufio.NewReader(out).ReadString('\n'); line != awakeLine {
			stop()
			return nil, fmt.Errorf("bench: -keep-awake child for cpu %d did not start spinning", cpu)
		}
	}
	return stop, nil
}

// spinIdle is a -keep-awake child: it pins itself to cpu, drops to
// SCHED_IDLE and spins until its standard input ends, which it does when
// the harness closes it or dies.
func spinIdle(cpu int) error {
	runtime.LockOSThread()
	var mask [16]uint64
	if cpu < 0 || cpu >= 64*len(mask) {
		return fmt.Errorf("bench: -keep-awake: no cpu %d", cpu)
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("bench: -keep-awake: pin to cpu %d: %w", cpu, errno)
	}
	// A spinner that cannot drop its priority would compete with the
	// program under test, so it must not spin at all.
	var priority int32
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		return fmt.Errorf("bench: -keep-awake: SCHED_IDLE: %w", errno)
	}
	fmt.Print(awakeLine)
	var done atomic.Bool
	go func() {
		io.Copy(io.Discard, os.Stdin)
		done.Store(true)
	}()
	for !done.Load() {
	}
	return nil
}
