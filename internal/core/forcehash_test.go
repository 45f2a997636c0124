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
var forceHashSIMD = map[string][2]uint64{
	"copper/double/baseline/w1":   {0x798663431801d832, 0x2130da64105badbc},
	"copper/double/baseline/w2":   {0x798663431801d832, 0x2130da64105badbc},
	"copper/double/batched/w1":    {0xdf124bf80fa67c4c, 0x4c47c1482be9605d},
	"copper/double/batched/w2":    {0xdf124bf80fa67c4c, 0x4c47c1482be9605d},
	"copper/double/compressed/w1": {0x484acc713252cceb, 0xdc0e3adf152a54a2},
	"copper/double/compressed/w2": {0x484acc713252cceb, 0xdc0e3adf152a54a2},
	"copper/double/peratom/w1":    {0xdd587642c1a62d31, 0x5b8bcd33e93ec43d},
	"copper/double/peratom/w2":    {0xdd587642c1a62d31, 0x5b8bcd33e93ec43d},
	"copper/mixed/batched/w1":     {0x951928413c6dbd47, 0x0be3f50e425484f2},
	"copper/mixed/batched/w2":     {0x951928413c6dbd47, 0x0be3f50e425484f2},
	"copper/mixed/compressed/w1":  {0xbee17fb2e3e0e994, 0xc4ab7c25a362c062},
	"copper/mixed/compressed/w2":  {0xbee17fb2e3e0e994, 0xc4ab7c25a362c062},
	"copper/mixed/peratom/w1":     {0x578070335ba6afed, 0x3b7f8df378a525cb},
	"copper/mixed/peratom/w2":     {0x578070335ba6afed, 0x3b7f8df378a525cb},
	"water/double/baseline/w1":    {0x7f887ba3eb3181fe, 0x7bca76f4078d04b6},
	"water/double/baseline/w2":    {0x7f887ba3eb3181fe, 0x7bca76f4078d04b6},
	"water/double/batched/w1":     {0x8450813c359f6666, 0x1d4ddb2f7e055779},
	"water/double/batched/w2":     {0x8450813c359f6666, 0x1d4ddb2f7e055779},
	"water/double/compressed/w1":  {0xd31968e1894bc5ae, 0xbe61c3233d74da93},
	"water/double/compressed/w2":  {0xd31968e1894bc5ae, 0xbe61c3233d74da93},
	"water/double/peratom/w1":     {0xb2fdac3f10267917, 0xdd4f81b6b1708432},
	"water/double/peratom/w2":     {0xb2fdac3f10267917, 0xdd4f81b6b1708432},
	"water/mixed/batched/w1":      {0xa5911f1000546579, 0xb1f5bbb834c4a7f8},
	"water/mixed/batched/w2":      {0xa5911f1000546579, 0xb1f5bbb834c4a7f8},
	"water/mixed/compressed/w1":   {0x05e296e41f5f8da5, 0xd9a032873e0c21d5},
	"water/mixed/compressed/w2":   {0x05e296e41f5f8da5, 0xd9a032873e0c21d5},
	"water/mixed/peratom/w1":      {0x970b202c286a6e00, 0xf6805c71bfdb0933},
	"water/mixed/peratom/w2":      {0x970b202c286a6e00, 0xf6805c71bfdb0933},
}

var forceHashGeneric = map[string][2]uint64{
	"copper/double/baseline/w1":   {0x320070ef30bdfcbc, 0x536e1d2dbe7071b7},
	"copper/double/baseline/w2":   {0x320070ef30bdfcbc, 0x536e1d2dbe7071b7},
	"copper/double/batched/w1":    {0x7040b1a1989cd978, 0xe24923ae08747a0d},
	"copper/double/batched/w2":    {0x7040b1a1989cd978, 0xe24923ae08747a0d},
	"copper/double/compressed/w1": {0x97560f1b67c38c07, 0x9dfe9a5a71ac3528},
	"copper/double/compressed/w2": {0x97560f1b67c38c07, 0x9dfe9a5a71ac3528},
	"copper/double/peratom/w1":    {0x5fd9984528e6002b, 0x6b1b79110a011fb4},
	"copper/double/peratom/w2":    {0x5fd9984528e6002b, 0x6b1b79110a011fb4},
	"copper/mixed/batched/w1":     {0x98d859635ca29452, 0x41a8c0412f33f287},
	"copper/mixed/batched/w2":     {0x98d859635ca29452, 0x41a8c0412f33f287},
	"copper/mixed/compressed/w1":  {0x5ee3317dbd82b566, 0xf26a6c45bd849097},
	"copper/mixed/compressed/w2":  {0x5ee3317dbd82b566, 0xf26a6c45bd849097},
	"copper/mixed/peratom/w1":     {0xcd573c003e9b2c35, 0xb80eed69f99b82bb},
	"copper/mixed/peratom/w2":     {0xcd573c003e9b2c35, 0xb80eed69f99b82bb},
	"water/double/baseline/w1":    {0x5f0d78209cafcaed, 0x29417f263aab504b},
	"water/double/baseline/w2":    {0x5f0d78209cafcaed, 0x29417f263aab504b},
	"water/double/batched/w1":     {0xc08e6f913daa4ea0, 0x69f2ecdded53db42},
	"water/double/batched/w2":     {0xc08e6f913daa4ea0, 0x69f2ecdded53db42},
	"water/double/compressed/w1":  {0xe6fa9320632d84b1, 0x9e525417543b243e},
	"water/double/compressed/w2":  {0xe6fa9320632d84b1, 0x9e525417543b243e},
	"water/double/peratom/w1":     {0x53160e782a819bbe, 0x63e0f672279686f1},
	"water/double/peratom/w2":     {0x53160e782a819bbe, 0x63e0f672279686f1},
	"water/mixed/batched/w1":      {0x404b915e39425a67, 0xaa8b2b1ed1d9492e},
	"water/mixed/batched/w2":      {0x404b915e39425a67, 0xaa8b2b1ed1d9492e},
	"water/mixed/compressed/w1":   {0x668dfbd53f6581da, 0x66bbab0681128348},
	"water/mixed/compressed/w2":   {0x668dfbd53f6581da, 0x66bbab0681128348},
	"water/mixed/peratom/w1":      {0x4c71cbfddeca0d8b, 0x81150c00ebc57d2d},
	"water/mixed/peratom/w2":      {0x4c71cbfddeca0d8b, 0x81150c00ebc57d2d},
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
