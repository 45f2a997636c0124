//go:build race

package nn

// raceEnabled reports whether the race detector is active: the race
// runtime instruments allocations and sync.Pool drops puts at random, so
// zero-allocation assertions only hold without -race.
const raceEnabled = true
