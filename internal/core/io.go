package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"deepmd-go/internal/compress"
	"deepmd-go/internal/nn"
)

// The model file is a gob stream: a header with the Config, followed by
// every network in deterministic order (embedding nets row-major by
// (center, neighbor) type, then fitting nets by type), followed by an
// optional compression section — a count (0 when no tables are attached)
// and the tabulated embedding nets in the same row-major order. Weights
// and table coefficients are always stored in double precision; the
// mixed-precision evaluator converts at load time (Sec. 5.2.3). Files
// written before the compression section existed simply end after the
// fitting nets and load as uncompressed models.

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(m.Cfg); err != nil {
		return fmt.Errorf("core: encoding config: %w", err)
	}
	for _, net := range m.Nets() {
		if err := nn.Save(w, net); err != nil {
			return err
		}
	}
	ntab := 0
	if m.Compressed != nil {
		ntab = len(m.Compressed) * len(m.Compressed)
	}
	if err := gob.NewEncoder(w).Encode(ntab); err != nil {
		return fmt.Errorf("core: encoding table count: %w", err)
	}
	for _, row := range m.Compressed {
		for _, tb := range row {
			if err := compress.Save(w, tb); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	// The stream holds several sequential gob streams (one per network).
	// Each decoder must not read past its own messages, which requires the
	// reader to implement io.ByteReader; wrap it once if it does not.
	type byteReader interface {
		io.Reader
		io.ByteReader
	}
	if _, ok := r.(byteReader); !ok {
		r = bufio.NewReader(r)
	}
	dec := gob.NewDecoder(r)
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("core: decoding config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nt := cfg.NumTypes()
	m := &Model{Cfg: cfg, Embed: make([][]*nn.Net[float64], nt), Fit: make([]*nn.Net[float64], nt)}
	for ci := 0; ci < nt; ci++ {
		m.Embed[ci] = make([]*nn.Net[float64], nt)
		for tj := 0; tj < nt; tj++ {
			net, err := nn.Load(r)
			if err != nil {
				return nil, fmt.Errorf("core: loading embedding net (%d,%d): %w", ci, tj, err)
			}
			if !net.IsEmbeddingNet(cfg.EmbedWidths) {
				return nil, fmt.Errorf("core: embedding net (%d,%d) is not the one EmbedWidths %v builds", ci, tj, cfg.EmbedWidths)
			}
			m.Embed[ci][tj] = net
		}
	}
	for ci := 0; ci < nt; ci++ {
		net, err := nn.Load(r)
		if err != nil {
			return nil, fmt.Errorf("core: loading fitting net %d: %w", ci, err)
		}
		if !net.IsFittingNet(cfg.DescriptorDim(), cfg.FitWidths) {
			return nil, fmt.Errorf("core: fitting net %d is not the one FitWidths %v builds on a %d-wide descriptor", ci, cfg.FitWidths, cfg.DescriptorDim())
		}
		m.Fit[ci] = net
	}
	// Optional compression section; absent in pre-compression files,
	// which end exactly here.
	var ntab int
	if err := gob.NewDecoder(r).Decode(&ntab); err != nil {
		if err == io.EOF {
			return m, nil
		}
		return nil, fmt.Errorf("core: decoding table count: %w", err)
	}
	if ntab == 0 {
		return m, nil
	}
	if ntab != nt*nt {
		return nil, fmt.Errorf("core: %d compressed tables for %d type pairs", ntab, nt*nt)
	}
	m.Compressed = make([][]*compress.Table[float64], nt)
	for ci := 0; ci < nt; ci++ {
		m.Compressed[ci] = make([]*compress.Table[float64], nt)
		for tj := 0; tj < nt; tj++ {
			tb, err := compress.Load(r)
			if err != nil {
				return nil, fmt.Errorf("core: loading compressed table (%d,%d): %w", ci, tj, err)
			}
			m.Compressed[ci][tj] = tb
		}
	}
	return m, nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := m.Save(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
}
