package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"

	"deepmd-go/internal/lattice"
	"deepmd-go/internal/neighbor"
)

// FuzzFrameRequest feeds arbitrary bytes through the preamble every frame
// endpoint runs — decode (unknown fields refused), then frameList, which
// validates the frame and builds its neighbor list — for each of the three
// request types. Nothing may panic, and an accepted frame has 3n finite
// positions, types in range, a positive finite box and no two atoms on one
// spot.
func FuzzFrameRequest(f *testing.F) {
	model, err := buildModel("", "water")
	if err != nil {
		f.Fatal(err)
	}
	srv := newServer(model.Cfg, nil, 0, nil)
	cell := lattice.Water(4, 4, 4, lattice.WaterSpacing, 3)
	for _, body := range badFrames(f, frameRequest{Pos: cell.Pos, Types: cell.Types, Box: cell.Box.L}) {
		f.Add(body)
	}
	f.Add([]byte(`{"pos":[0,0,0,0.96,0,0,-0.24,0.93,0],"types":[0,1,1],"box":[12,12,12],"steps":5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var rel relaxRequest
		var traj trajectoryRequest
		var eval frameRequest
		for _, req := range []struct {
			dst   any
			frame *frameRequest
		}{{&eval, &eval}, {&rel, &rel.frameRequest}, {&traj, &traj.frameRequest}} {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			if !srv.decode(httptest.NewRecorder(), r, req.dst) {
				continue
			}
			fr := req.frame
			box, _, err := srv.frameList(fr)
			if err != nil {
				continue
			}
			n := len(fr.Types)
			if n == 0 || len(fr.Pos) != 3*n {
				t.Fatalf("accepted %d types with %d coordinates", n, len(fr.Pos))
			}
			for _, x := range fr.Pos {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted non-finite position %g", x)
				}
			}
			for i, ty := range fr.Types {
				if ty < 0 || ty >= len(model.Cfg.Sel) {
					t.Fatalf("accepted types[%d] = %d", i, ty)
				}
			}
			for _, l := range box.L {
				if !(l > 0) || math.IsInf(l, 0) {
					t.Fatalf("accepted box %v", box.L)
				}
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if d := neighbor.Displacement(fr.Pos, i, j, box); d == [3]float64{} {
						t.Fatalf("accepted atoms %d and %d on one spot", i, j)
					}
				}
			}
		}
	})
}
