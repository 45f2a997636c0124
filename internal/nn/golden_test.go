package nn

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepmd-go/internal/tensor"
	"deepmd-go/internal/tensor/cpufeat"
)

// The bits of a forward and backward pass through the paper's two nets are
// pinned: kernel work that claims to move no bit — a new lane kernel, a
// re-scheduled epilogue, a different tier for one shape — is checked here
// against hashes recorded before it. Each case hashes (FNV-64a over the
// little-endian bits) every layer output and tanh gradient of ForwardInto
// and Backward's dX. One table holds the SIMD families (AVX2 and AVX-512
// agree bit for bit), the other the generic family (the purego contract and
// DEEPMD_KERNEL=generic); every executable family is checked against its
// table.

// goldenRows are the row counts: one row, around a strip height and
// around a full 128-row tile.
var goldenRows = []int{1, 7, 8, 9, 128, 131}

// Both tables were recorded while the element-wise passes were Go loops,
// the AVX-512 tanh epilogue ran one accumulator at a time and the fitting
// head's backward ran on the naive dot loop: the lanes that replaced them
// reproduce those bits. The SIMD table's fit rows were re-recorded once,
// when the one-column head's forward moved from the naive loop (Go's
// multiply then add) to the strips (one FMA per k): every row count whose
// head output rounds differently — f64 8, 128 and 131, f32 128 and 131.
// They were re-recorded once more when the tanh after the 1600-deep first
// fitting layer (deeper than one K panel) moved from the Go loop to a lane
// pass with the strips' epilogue: math.Tanh became the lanes' tanh in f64,
// and in both precisions the gradient 1 - y·y became one FNMADD.
var netBitsGoldenSIMD = map[string]uint64{
	"embed/f32/rows=1":   0xa553c9b535060d21,
	"embed/f32/rows=128": 0x32fe482b624004a3,
	"embed/f32/rows=131": 0xf5033d281d6c5eab,
	"embed/f32/rows=7":   0x0dd5799fd5641126,
	"embed/f32/rows=8":   0xe95d348b5dd0de98,
	"embed/f32/rows=9":   0x1a021aa02b0d01c5,
	"embed/f64/rows=1":   0x64d611db12a8902d,
	"embed/f64/rows=128": 0x837ef1dffbedca00,
	"embed/f64/rows=131": 0x0250871224e8aeb5,
	"embed/f64/rows=7":   0xbc120416f6bec361,
	"embed/f64/rows=8":   0x4679c77d371865c5,
	"embed/f64/rows=9":   0x9cdcf73ae94ec6ce,
	"fit/f32/rows=1":     0xfb71d06caa81c10b,
	"fit/f32/rows=128":   0x4775cf0cb04fac78,
	"fit/f32/rows=131":   0x46f77832ea9176d4,
	"fit/f32/rows=7":     0x737311c255e92441,
	"fit/f32/rows=8":     0x69c1a0957ae1338d,
	"fit/f32/rows=9":     0xf47f031047d1e23e,
	"fit/f64/rows=1":     0x2b137173e532db74,
	"fit/f64/rows=128":   0x702b405ac894784e,
	"fit/f64/rows=131":   0x9b8b7c0837bad10d,
	"fit/f64/rows=7":     0x3fab894c2ac1ecf9,
	"fit/f64/rows=8":     0x382be699b7ed78fa,
	"fit/f64/rows=9":     0x4a288c10d0f6af99,
}

var netBitsGoldenGeneric = map[string]uint64{
	"embed/f32/rows=1":   0x1e5481863cad1885,
	"embed/f32/rows=128": 0x1e3647cfbfce1fee,
	"embed/f32/rows=131": 0xbb0d463d8143d3ca,
	"embed/f32/rows=7":   0x26aed02b5b146975,
	"embed/f32/rows=8":   0x5f2cc54d4eb2ba55,
	"embed/f32/rows=9":   0x30918ee05c907c8f,
	"embed/f64/rows=1":   0x2af96153d8965708,
	"embed/f64/rows=128": 0x423428913f65ba1f,
	"embed/f64/rows=131": 0x5863b189d6c87240,
	"embed/f64/rows=7":   0xd649f87f29bbf267,
	"embed/f64/rows=8":   0xfa5e2cc228499e36,
	"embed/f64/rows=9":   0x4d1ae6d9488ddc80,
	"fit/f32/rows=1":     0x4d9eecdf82e223c7,
	"fit/f32/rows=128":   0xeebbf5099ac55f86,
	"fit/f32/rows=131":   0x72049cb523d67395,
	"fit/f32/rows=7":     0x61c8cf202c1f991d,
	"fit/f32/rows=8":     0x8d0c7bf023b9728e,
	"fit/f32/rows=9":     0x8cd2bdc99ade0a43,
	"fit/f64/rows=1":     0xd9a518e5fcb8577c,
	"fit/f64/rows=128":   0x5f72f51af0a578b3,
	"fit/f64/rows=131":   0xee1975f4b909e4ac,
	"fit/f64/rows=7":     0x60445160a35eac6b,
	"fit/f64/rows=8":     0x996fcaf2b5b6a4bd,
	"fit/f64/rows=9":     0x049db93e7b6281c2,
}

// goldenInput fills a rows x cols matrix from seed: three in four entries
// in [-1, 1], the fourth in [-30, 30], deep in tanh's saturation.
func goldenInput[T tensor.Float](seed int64, rows, cols int) tensor.Matrix[T] {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.NewMatrix[T](rows, cols)
	for i := range m.Data {
		v := 2*rng.Float64() - 1
		if i%4 == 3 {
			v *= 30
		}
		m.Data[i] = T(v)
	}
	return m
}

// hashBits appends the bits of v to the running hash.
func hashBits[T tensor.Float](h hash.Hash64, v []T) {
	var buf [8]byte
	for _, x := range v {
		switch x := any(x).(type) {
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:8])
		case float32:
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:4])
		}
	}
}

// netBitsHash runs one traced forward pass and one backward pass over rows
// seeded inputs and hashes the trace and dX.
func netBitsHash[T tensor.Float](n *Net[T], rows int) uint64 {
	x := goldenInput[T](int64(rows), rows, n.InDim())
	dOut := goldenInput[T](int64(rows)+1000, rows, n.OutDim())
	ar := tensor.NewArena[T](n.ArenaLen(rows))
	var tr Trace[T]
	n.ForwardInto(&tr, nil, tensor.Opts{}, ar, x, true)
	dx := n.Backward(nil, tensor.Opts{}, ar, &tr, dOut, nil)
	h := fnv.New64a()
	for i := range n.Layers {
		hashBits(h, tr.Ys[i].Data)
		hashBits(h, tr.Gs[i].Data)
	}
	hashBits(h, dx.Data)
	return h.Sum64()
}

func netBitsCases[T tensor.Float](t *testing.T, prec string, golden map[string]uint64, got map[string]uint64) {
	nets := []struct {
		name string
		net  *Net[T]
	}{
		{"embed", NewEmbeddingNet[T](rand.New(rand.NewSource(31)), []int{25, 50, 100})},
		{"fit", NewFittingNet[T](rand.New(rand.NewSource(32)), 1600, []int{240, 240, 240}, -93.5)},
	}
	for _, nc := range nets {
		for _, rows := range goldenRows {
			key := fmt.Sprintf("%s/%s/rows=%d", nc.name, prec, rows)
			h := netBitsHash(nc.net, rows)
			got[key] = h
			if want, ok := golden[key]; !ok || h != want {
				t.Errorf("%s: hash %#016x, want %#016x", key, h, want)
			}
		}
	}
}

func TestNetBitsGolden(t *testing.T) {
	prev := cpufeat.Active()
	defer cpufeat.SetActive(prev)
	for _, fam := range []cpufeat.Family{cpufeat.Generic, cpufeat.AVX2, cpufeat.AVX512} {
		if !cpufeat.Available(fam) {
			continue
		}
		t.Run(fam.String(), func(t *testing.T) {
			if _, err := cpufeat.SetActive(fam); err != nil {
				t.Fatal(err)
			}
			golden := netBitsGoldenSIMD
			if fam == cpufeat.Generic {
				golden = netBitsGoldenGeneric
			}
			got := map[string]uint64{}
			netBitsCases[float64](t, "f64", golden, got)
			netBitsCases[float32](t, "f32", golden, got)
			if t.Failed() {
				for _, k := range slices.Sorted(maps.Keys(got)) {
					t.Logf("%q: %#016x,", k, got[k])
				}
			}
		})
	}
}
