package md

import (
	"testing"

	"deepmd-go/internal/core"
)

// Capture must snapshot on the exact cadence, copy positions (later steps
// must not mutate earlier snapshots), and record moving configurations.
func TestCaptureCadenceAndCopies(t *testing.T) {
	systems, model, spec := waterReplicas(t, 1)
	opt := Options{Dt: 0.0005, Spec: spec, RebuildEvery: 5, CaptureEvery: 4}
	sim, err := NewSim(systems[0], core.NewEvaluator[float64](model), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(sim.Traj) != 2 {
		t.Fatalf("%d snapshots after 10 steps at CaptureEvery 4, want 2", len(sim.Traj))
	}
	for i, want := range []int{4, 8} {
		if sim.Traj[i].Step != want {
			t.Fatalf("snapshot %d at step %d, want %d", i, sim.Traj[i].Step, want)
		}
		if len(sim.Traj[i].Pos) != len(systems[0].Pos) {
			t.Fatalf("snapshot %d has %d coords", i, len(sim.Traj[i].Pos))
		}
	}
	// Copies, not aliases: the live system has moved past snapshot 0.
	same := true
	for x := range sim.Traj[0].Pos {
		if sim.Traj[0].Pos[x] != systems[0].Pos[x] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("snapshot 0 aliases (or equals) the live positions after 10 steps")
	}
	// And the two snapshots are distinct configurations.
	same = true
	for x := range sim.Traj[0].Pos {
		if sim.Traj[0].Pos[x] != sim.Traj[1].Pos[x] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive snapshots are identical")
	}
}

// Zero CaptureEvery must keep the trajectory empty (no surprise memory
// growth for plain MD runs).
func TestCaptureDisabledByDefault(t *testing.T) {
	systems, model, spec := waterReplicas(t, 1)
	sim, err := NewSim(systems[0], core.NewEvaluator[float64](model), Options{Dt: 0.0005, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(6); err != nil {
		t.Fatal(err)
	}
	if len(sim.Traj) != 0 {
		t.Fatalf("%d snapshots captured with CaptureEvery unset", len(sim.Traj))
	}
}

// Ensemble replicas capture bit-identical trajectories to serial runs —
// the property the active-learning deviation pass depends on.
func TestCaptureEnsembleMatchesSerial(t *testing.T) {
	const k, steps = 2, 8
	systems, model, spec := waterReplicas(t, k)
	refs := make([]*System, k)
	for i := range systems {
		refs[i] = cloneSystem(systems[i])
	}
	opt := Options{Dt: 0.0005, Spec: spec, RebuildEvery: 4, CaptureEvery: 2}

	engine, err := core.NewEngine(model, core.Plan{MaxConcurrency: k})
	if err != nil {
		t.Fatal(err)
	}
	sims, err := RunEnsemble(engine, systems, opt, steps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		ref, err := NewSim(refs[i], core.NewEvaluator[float64](model), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(steps); err != nil {
			t.Fatal(err)
		}
		if len(sims[i].Traj) != len(ref.Traj) {
			t.Fatalf("replica %d: %d snapshots, serial %d", i, len(sims[i].Traj), len(ref.Traj))
		}
		for j := range ref.Traj {
			if sims[i].Traj[j].Step != ref.Traj[j].Step || sims[i].Traj[j].Box != ref.Traj[j].Box {
				t.Fatalf("replica %d snapshot %d metadata diverged", i, j)
			}
			for x := range ref.Traj[j].Pos {
				if sims[i].Traj[j].Pos[x] != ref.Traj[j].Pos[x] {
					t.Fatalf("replica %d snapshot %d coord %d diverged from serial", i, j, x)
				}
			}
		}
	}
}
