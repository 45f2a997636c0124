package core

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
	"deepmd-go/internal/tensor/cpufeat"
)

// TestForceCallHashes pins the bits of whole force calls: FNV-64 over the
// float64 bits of Energy, AtomEnergy, Force and Virial, for water (648
// atoms) and copper (500 atoms, 1 A skin) at the paper's network geometry,
// under every precision, strategy and worker count, each at the built
// positions and again after a fixed drift on the same neighbor list. The
// SIMD families share one table and the generic loops have their own: a
// kernel change that moves one bit of one force in any configuration fails
// here.
//
// This test runs the Batched and Compressed rows on every SIMD family the
// host executes (on the generic loops where there is none). The PerAtom and
// Baseline rows, and the generic loops beside a SIMD family, take minutes
// and run under the forcehashes build tag (forcehash_slow_test.go). The
// race detector changes no bits and multiplies the time, so the test does
// not run under -race.
func TestForceCallHashes(t *testing.T) {
	if raceEnabled {
		t.Skip("bits are checked without -race")
	}
	fams := simdFamilies()
	if len(fams) == 0 {
		fams = []cpufeat.Family{cpufeat.Generic}
	}
	checkForceCallHashes(t, fams, []Strategy{StrategyBatched, StrategyCompressed})
}

// simdFamilies lists the SIMD kernel families the host executes.
func simdFamilies() []cpufeat.Family {
	var fams []cpufeat.Family
	for _, f := range []cpufeat.Family{cpufeat.AVX2, cpufeat.AVX512} {
		if cpufeat.Available(f) {
			fams = append(fams, f)
		}
	}
	return fams
}

// forceHashSIMD and forceHashGeneric map "system/precision/strategy/wN" to
// the hashes at the built positions and after the drift. Every row of the
// SIMD table was re-recorded once, when the layers below the tiles' widths
// and depths (the one-column fitting head's forward above all) moved from
// the naive loops to the SIMD kernels: one FMA per k where Go multiplied
// then added. The Baseline rows moved with them, because its nets'
// standard MATMUL operator runs on the active family. The generic table is
// unchanged. The double-precision Batched, Compressed and PerAtom rows of
// both tables were re-recorded once more when the default ChunkSize fell
// from 256 to 32: the total energy sums chunk energies in chunk order, so
// its last bits moved, while every AtomEnergy, Force and Virial bit stayed.
// Every Batched, Compressed and PerAtom row of both tables was re-recorded
// once more when neighbor rows took the (type, index) order and the
// per-step format its split at the cutoff: each section's contributions
// now sum in index order. The SIMD rows also carry the tanh after the
// 1600-deep first fitting layer moving onto the lanes (the strips'
// epilogue as a pass of its own). The Baseline rows, which sort their own
// AoS records by distance, did not move.
var forceHashSIMD = map[string][2]uint64{
	"copper/double/baseline/w1":   {0x798663431801d832, 0x2130da64105badbc},
	"copper/double/baseline/w2":   {0x798663431801d832, 0x2130da64105badbc},
	"copper/double/batched/w1":    {0x81fcbe031c64887e, 0xab6f89cbb94633b6},
	"copper/double/batched/w2":    {0x81fcbe031c64887e, 0xab6f89cbb94633b6},
	"copper/double/compressed/w1": {0x2b4314b247d5c8c9, 0x31259a4c89af19bd},
	"copper/double/compressed/w2": {0x2b4314b247d5c8c9, 0x31259a4c89af19bd},
	"copper/double/peratom/w1":    {0x7ce7f510b6bc0274, 0x44fbd56359ec7712},
	"copper/double/peratom/w2":    {0x7ce7f510b6bc0274, 0x44fbd56359ec7712},
	"copper/mixed/batched/w1":     {0x76369e1528d50016, 0x972bf70ab7ffeda1},
	"copper/mixed/batched/w2":     {0x76369e1528d50016, 0x972bf70ab7ffeda1},
	"copper/mixed/compressed/w1":  {0x44d8cbf19391f6f3, 0x18bf1231b276ee34},
	"copper/mixed/compressed/w2":  {0x44d8cbf19391f6f3, 0x18bf1231b276ee34},
	"copper/mixed/peratom/w1":     {0xc7e879ede2b4cb5b, 0x8107e0ce49310b43},
	"copper/mixed/peratom/w2":     {0xc7e879ede2b4cb5b, 0x8107e0ce49310b43},
	"water/double/baseline/w1":    {0x7f887ba3eb3181fe, 0x7bca76f4078d04b6},
	"water/double/baseline/w2":    {0x7f887ba3eb3181fe, 0x7bca76f4078d04b6},
	"water/double/batched/w1":     {0xd36a44162d7b05cf, 0x6bd499a176ffb5c6},
	"water/double/batched/w2":     {0xd36a44162d7b05cf, 0x6bd499a176ffb5c6},
	"water/double/compressed/w1":  {0x4d32b65a36d72f4a, 0x0870c9b37d9bfb84},
	"water/double/compressed/w2":  {0x4d32b65a36d72f4a, 0x0870c9b37d9bfb84},
	"water/double/peratom/w1":     {0x35e61aca063460c1, 0x801f89d33c945596},
	"water/double/peratom/w2":     {0x35e61aca063460c1, 0x801f89d33c945596},
	"water/mixed/batched/w1":      {0xde189d1437656df0, 0x1ca7c9b8554a46e9},
	"water/mixed/batched/w2":      {0xde189d1437656df0, 0x1ca7c9b8554a46e9},
	"water/mixed/compressed/w1":   {0x767f5fd84ccbfb28, 0xf455bdeb1b0d5775},
	"water/mixed/compressed/w2":   {0x767f5fd84ccbfb28, 0xf455bdeb1b0d5775},
	"water/mixed/peratom/w1":      {0x937218b7f4342fdb, 0x80200964aac66268},
	"water/mixed/peratom/w2":      {0x937218b7f4342fdb, 0x80200964aac66268},
}

var forceHashGeneric = map[string][2]uint64{
	"copper/double/baseline/w1":   {0x320070ef30bdfcbc, 0x536e1d2dbe7071b7},
	"copper/double/baseline/w2":   {0x320070ef30bdfcbc, 0x536e1d2dbe7071b7},
	"copper/double/batched/w1":    {0x8b10125fa4734f3b, 0x9162b92cd9bff366},
	"copper/double/batched/w2":    {0x8b10125fa4734f3b, 0x9162b92cd9bff366},
	"copper/double/compressed/w1": {0x197e707c14d37aaa, 0xc3d7373d07b21c87},
	"copper/double/compressed/w2": {0x197e707c14d37aaa, 0xc3d7373d07b21c87},
	"copper/double/peratom/w1":    {0xcf2da383f7f03815, 0xddd72fdb98ba07cf},
	"copper/double/peratom/w2":    {0xcf2da383f7f03815, 0xddd72fdb98ba07cf},
	"copper/mixed/batched/w1":     {0x937bc9a8ca193c85, 0x4b39933bbab18b67},
	"copper/mixed/batched/w2":     {0x937bc9a8ca193c85, 0x4b39933bbab18b67},
	"copper/mixed/compressed/w1":  {0xac86f44db0a0b05e, 0x560903ecf980d2eb},
	"copper/mixed/compressed/w2":  {0xac86f44db0a0b05e, 0x560903ecf980d2eb},
	"copper/mixed/peratom/w1":     {0x721d33a211a894d5, 0x499e2bdede1d0e38},
	"copper/mixed/peratom/w2":     {0x721d33a211a894d5, 0x499e2bdede1d0e38},
	"water/double/baseline/w1":    {0x5f0d78209cafcaed, 0x29417f263aab504b},
	"water/double/baseline/w2":    {0x5f0d78209cafcaed, 0x29417f263aab504b},
	"water/double/batched/w1":     {0x059abaf51b2671c6, 0xdb97e67f83bcfc44},
	"water/double/batched/w2":     {0x059abaf51b2671c6, 0xdb97e67f83bcfc44},
	"water/double/compressed/w1":  {0x907d1a09342402cb, 0x88540a0e1635301c},
	"water/double/compressed/w2":  {0x907d1a09342402cb, 0x88540a0e1635301c},
	"water/double/peratom/w1":     {0x840f551896b1da52, 0x2805b6ab38198fed},
	"water/double/peratom/w2":     {0x840f551896b1da52, 0x2805b6ab38198fed},
	"water/mixed/batched/w1":      {0x67f2b1fdbf368a23, 0x8855b7dd24acbbb7},
	"water/mixed/batched/w2":      {0x67f2b1fdbf368a23, 0x8855b7dd24acbbb7},
	"water/mixed/compressed/w1":   {0xc43b62e8e4dcf93c, 0x8c24689d7219b134},
	"water/mixed/compressed/w2":   {0xc43b62e8e4dcf93c, 0x8c24689d7219b134},
	"water/mixed/peratom/w1":      {0x971339187507e2f5, 0x124fd940091dd266},
	"water/mixed/peratom/w2":      {0x971339187507e2f5, 0x124fd940091dd266},
}

// forceHashSystem is one hashed system: its model (compressed tables
// attached) and its built configuration with the neighbor list both
// position sets share.
type forceHashSystem struct {
	name  string
	model *Model
	pos   []float64 // built positions
	drift []float64 // built positions plus the fixed drift
	types []int
	box   neighbor.Box
	list  *neighbor.List
}

var (
	forceHashOnce    sync.Once
	forceHashSystems []*forceHashSystem
	forceHashErr     error
)

// forceHashSetup builds both systems once per test binary.
func forceHashSetup(t *testing.T) []*forceHashSystem {
	t.Helper()
	forceHashOnce.Do(func() {
		cu := lattice.FCC(5, 5, 5, lattice.CuLatticeConst)
		lattice.Perturb(cu, 0.05, 2)
		for _, s := range []struct {
			name string
			cfg  Config
			cell *lattice.System
			skin float64
		}{
			{"water", WaterConfig(), lattice.Water(6, 6, 6, lattice.WaterSpacing, 1), 2},
			{"copper", CopperConfig(), cu, 1},
		} {
			sys, err := newForceHashSystem(s.name, s.cfg, s.cell, s.skin)
			if err != nil {
				forceHashErr = err
				return
			}
			forceHashSystems = append(forceHashSystems, sys)
		}
	})
	if forceHashErr != nil {
		t.Fatal(forceHashErr)
	}
	return forceHashSystems
}

func newForceHashSystem(name string, cfg Config, cell *lattice.System, skin float64) (*forceHashSystem, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.AttachCompressedTables(compress.Spec{}); err != nil {
		return nil, err
	}
	n := cell.N()
	list, err := neighbor.Build(neighbor.Spec{Rcut: cfg.Rcut, Skin: skin, Sel: cfg.Sel}, cell.Pos, cell.Types, n, &cell.Box, 1)
	if err != nil {
		return nil, err
	}
	// The drift moves every coordinate by at most skin/4, so the list
	// built at the original positions stays valid.
	rng := rand.New(rand.NewSource(3))
	drift := slices.Clone(cell.Pos)
	for i := range drift {
		drift[i] += skin / 4 * (2*rng.Float64() - 1)
	}
	return &forceHashSystem{name: name, model: m, pos: cell.Pos, drift: drift, types: cell.Types, box: cell.Box, list: list}, nil
}

// forceHash is FNV-64 over the float64 bits of one force call's outputs.
func forceHash(r *Result) uint64 {
	h := fnv.New64()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(r.Energy)
	for _, v := range r.AtomEnergy {
		put(v)
	}
	for _, v := range r.Force {
		put(v)
	}
	for _, v := range r.Virial {
		put(v)
	}
	return h.Sum64()
}

// forceHashRows lists the configurations of the given strategies in table
// order. Baseline is double precision only.
func forceHashRows(strategies []Strategy) []Plan {
	var rows []Plan
	for _, s := range strategies {
		for _, p := range []Precision{Double, Mixed} {
			if s == StrategyBaseline && p == Mixed {
				continue
			}
			for _, w := range []int{1, 2} {
				rows = append(rows, Plan{Precision: p, Strategy: s, Workers: w, MaxConcurrency: 1})
			}
		}
	}
	return rows
}

// checkForceCallHashes runs the rows of the given strategies under each
// of fams and compares them with the family's table.
func checkForceCallHashes(t *testing.T, fams []cpufeat.Family, strategies []Strategy) {
	systems := forceHashSetup(t)
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range fams {
		t.Run(fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			want := forceHashSIMD
			if fam == cpufeat.Generic {
				want = forceHashGeneric
			}
			got := map[string][2]uint64{}
			for _, sys := range systems {
				for _, plan := range forceHashRows(strategies) {
					key := fmt.Sprintf("%s/%s/%s/w%d", sys.name, plan.Precision, plan.Strategy, plan.Workers)
					eng, err := NewEngine(sys.model, plan)
					if err != nil {
						t.Fatal(err)
					}
					var h [2]uint64
					for i, pos := range [][]float64{sys.pos, sys.drift} {
						var res Result
						if err := eng.Compute(pos, sys.types, len(sys.types), sys.list, &sys.box, &res); err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						h[i] = forceHash(&res)
					}
					got[key] = h
					if w, ok := want[key]; !ok || w != h {
						t.Errorf("%s: hashes {%#016x, %#016x}, want {%#016x, %#016x}", key, h[0], h[1], w[0], w[1])
					}
				}
			}
			if t.Failed() {
				for _, k := range slices.Sorted(maps.Keys(got)) {
					t.Logf("%q: {%#016x, %#016x},", k, got[k][0], got[k][1])
				}
			}
		})
	}
}
