// Package use exercises the mpitag analyzer: named-tag discipline and
// payload kind coverage.
package use

import "mpifix/internal/mpi"

const tagForces = 7

type bundle struct{ Xs []float64 }

// Exercise sends with good and bad tags and payloads.
func Exercise(c *mpi.Comm, xs []float64, gids []int64, blob []byte) {
	c.Send(1, 42, xs) // want `raw integer literal as Send tag`
	c.Send(1, tagForces, xs)
	c.Send(1, tagForces+1, gids)
	c.Send(1, tagForces+2, blob)
	_ = c.Bcast(0, tagForces, blob)
	c.Send(1, tagForces, []float32{1})      // want `Send payload type \[\]float32 is not a wire-codec kind`
	c.Send(1, tagForces, 3)                 // want `Send payload type int is not a wire-codec kind`
	c.Send(1, tagForces, bundle{Xs: xs})    // want `Send payload type bundle is not a wire-codec kind`
	_ = c.Bcast(0, tagForces, [3]float64{}) // want `Bcast payload type \[3\]float64 is not a wire-codec kind`
	_ = c.Recv(1, tagForces)
	_ = c.Allreduce(3, 1.0) // want `raw integer literal as Allreduce tag`
}
