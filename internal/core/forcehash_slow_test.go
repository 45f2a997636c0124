//go:build forcehashes

package core

import (
	"testing"

	"deepmd-go/internal/tensor/cpufeat"
)

// TestForceCallHashesSlow checks the rows TestForceCallHashes leaves out:
// the PerAtom and Baseline strategies under every family the host
// executes, and the Batched and Compressed rows on the generic loops when
// a SIMD family exists beside them. Run with
//
//	go test -tags forcehashes -run ForceCallHashes ./internal/core/
func TestForceCallHashesSlow(t *testing.T) {
	if raceEnabled {
		t.Skip("bits are checked without -race")
	}
	slow := []Strategy{StrategyPerAtom, StrategyBaseline}
	fams := simdFamilies()
	if len(fams) == 0 {
		checkForceCallHashes(t, []cpufeat.Family{cpufeat.Generic}, slow)
		return
	}
	checkForceCallHashes(t, []cpufeat.Family{cpufeat.Generic}, append([]Strategy{StrategyBatched, StrategyCompressed}, slow...))
	checkForceCallHashes(t, fams, slow)
}
