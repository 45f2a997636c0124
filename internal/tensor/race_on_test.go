//go:build race

package tensor

// raceEnabled reports whether the race detector is active; its
// instrumentation slows the reference loops of the differential tests by
// an order of magnitude, so the largest sweep shape shrinks under it.
const raceEnabled = true
