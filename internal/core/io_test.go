package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/nn"
	"deepmd-go/internal/tensor"
)

// A model file whose networks are well-formed gob but do not fit
// together is an error from Load, never a panic: a layer chain that
// breaks inside one net, and a net that is not the one the file's own
// Config builds.
func TestLoadRejectsMalformedNets(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(m *Model)
		want   string
	}{
		{"broken chain", func(m *Model) {
			// Layer 0 (plain, 1 -> 4) now outputs 5; layer 1 still reads 4.
			m.Embed[0][0].Layers[0] = &nn.Layer[float64]{Kind: nn.Plain, W: tensor.NewMatrix[float64](1, 5), B: make([]float64, 5)}
		}, "layer 1 input 4 != previous output 5"},
		{"net does not match Config", func(m *Model) {
			m.Embed[1][0] = nn.NewEmbeddingNet[float64](rand.New(rand.NewSource(1)), []int{4, 8})
		}, "embedding net (1,0) is not the one EmbedWidths"},
		{"fitting net does not match Config", func(m *Model) {
			m.Fit[1] = nn.NewFittingNet[float64](rand.New(rand.NewSource(1)), m.Cfg.DescriptorDim(), []int{24, 24}, 0)
		}, "fitting net 1 is not the one FitWidths"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(TinyConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			tc.tamper(m)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err = Load(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzModelLoad feeds arbitrary bytes to the model-file decoder: it
// never panics, and a model it accepts saves, loads and saves again to
// the same bytes.
func FuzzModelLoad(f *testing.F) {
	for _, tables := range []bool{false, true} {
		m, err := New(TinyConfig(1))
		if err != nil {
			f.Fatal(err)
		}
		if tables {
			if err := m.AttachCompressedTables(compress.Spec{NSeg: 8}); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save -> Load -> Save changed the bytes (%d -> %d)", first.Len(), second.Len())
		}
	})
}
