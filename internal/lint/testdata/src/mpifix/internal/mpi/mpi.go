// Package mpi is a fixture stand-in exposing the Comm call surface the
// mpitag analyzer keys on (matched by import-path suffix).
package mpi

// Comm mirrors the real communicator's method set.
type Comm struct{}

func (c *Comm) Send(dst, tag int, payload any)       {}
func (c *Comm) Recv(src, tag int) any                { return nil }
func (c *Comm) Bcast(root, tag int, payload any) any { return payload }
func (c *Comm) Allreduce(tag int, v float64) float64 { return v }
