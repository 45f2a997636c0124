package domain

import (
	"bytes"
	"fmt"
	"time"

	"deepmd-go/internal/core"
	"deepmd-go/internal/md"
	"deepmd-go/internal/mpi"
)

// SetupResult measures the Sec. 7.3 setup-time experiment: the baseline
// DeePMD-kit built the atomic structure on a single rank and distributed
// it, and every rank read the model file from storage (>240 s at 4560
// nodes); the optimized code builds atoms locally on every rank without
// communication and stages the model with a single read plus broadcast
// (<5 s).
type SetupResult struct {
	Ranks int

	// BaselineAtoms: rank 0 builds, serializes and distributes.
	BaselineAtoms time.Duration
	// OptimizedAtoms: every rank builds its own copy locally.
	OptimizedAtoms time.Duration
	// BaselineModel: every rank loads the model file independently.
	BaselineModel time.Duration
	// OptimizedModel: rank 0 loads once, broadcasts the bytes.
	OptimizedModel time.Duration
}

// Speedup returns the total setup speedup of the optimized strategy.
func (r *SetupResult) Speedup() float64 {
	base := r.BaselineAtoms + r.BaselineModel
	opt := r.OptimizedAtoms + r.OptimizedModel
	if opt == 0 {
		return 0
	}
	return float64(base) / float64(opt)
}

const (
	tagSetupAtoms = 700
	tagSetupModel = 701
)

// MeasureSetup runs both strategies on a simulated world and times them.
// builder must be deterministic (same output on every rank).
func MeasureSetup(builder func() *md.System, modelPath string, ranks int) (*SetupResult, error) {
	world := mpi.NewWorld(ranks)
	res := &SetupResult{Ranks: ranks}
	var firstErr error

	world.Run(func(c *mpi.Comm) {
		fail := func(err error) {
			if c.Rank() == 0 && firstErr == nil {
				firstErr = err
			}
		}

		// Strategy 1 (baseline): rank 0 builds and distributes the whole
		// structure; other ranks wait for their copy.
		c.Barrier()
		t0 := time.Now()
		if c.Rank() == 0 {
			sys := builder()
			payload := encodeBundle(atomBundle{Pos: sys.Pos, Typ: sys.Types})
			for dst := 1; dst < c.Size(); dst++ {
				c.Send(dst, tagSetupAtoms, payload)
			}
		} else {
			if _, err := decodeBundle(c.Recv(0, tagSetupAtoms).([]byte)); err != nil {
				fail(err)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			res.BaselineAtoms = time.Since(t0)
		}

		// Strategy 2 (optimized): every rank builds locally, no
		// communication (Sec. 7.3: "we build the atomic structure with
		// all the MPI tasks without communication").
		c.Barrier()
		t1 := time.Now()
		_ = builder()
		c.Barrier()
		if c.Rank() == 0 {
			res.OptimizedAtoms = time.Since(t1)
		}

		// Strategy 3 (baseline): every rank reads the model file.
		c.Barrier()
		t2 := time.Now()
		if _, err := core.LoadFile(modelPath); err != nil {
			fail(err)
		}
		c.Barrier()
		if c.Rank() == 0 {
			res.BaselineModel = time.Since(t2)
		}

		// Strategy 4 (optimized): rank 0 reads once and broadcasts; other
		// ranks decode from memory.
		c.Barrier()
		t3 := time.Now()
		var blob []byte
		if c.Rank() == 0 {
			m, err := core.LoadFile(modelPath)
			if err != nil {
				fail(err)
				blob = []byte{}
			} else {
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					fail(err)
				}
				blob = buf.Bytes()
			}
		}
		blob = c.Bcast(0, tagSetupModel, blob).([]byte)
		if c.Rank() != 0 && len(blob) > 0 {
			if _, err := core.Load(bytes.NewReader(blob)); err != nil {
				fail(err)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			res.OptimizedModel = time.Since(t3)
		}
	})
	if firstErr != nil {
		return nil, fmt.Errorf("domain: setup measurement: %w", firstErr)
	}
	return res, nil
}
