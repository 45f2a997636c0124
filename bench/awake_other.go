//go:build !linux

package main

import "errors"

// The harness measures on Linux (it reads /proc); elsewhere it only has to
// compile.

func keepAwake() (stop func(), err error) {
	return nil, errors.New("bench: keeping the CPUs awake needs Linux's SCHED_IDLE")
}

func spinIdle(int) error {
	return errors.New("bench: -keep-awake needs Linux's SCHED_IDLE")
}
