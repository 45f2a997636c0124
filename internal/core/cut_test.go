package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// typesOf returns a type array with counts[t] atoms of type t, interleaved
// so that no type's atoms are contiguous.
func typesOf(counts ...int) []int {
	var types []int
	left := append([]int(nil), counts...)
	for more := true; more; {
		more = false
		for t := range left {
			if left[t] > 0 {
				left[t]--
				types = append(types, t)
				more = true
			}
		}
	}
	return types
}

// cutHeights renders a frame's chunks as "h h | h ...": heights in job
// order, types separated by bars.
func cutHeights(jobs []chunkJob, ntypes int) string {
	parts := make([]string, ntypes)
	for _, j := range jobs {
		parts[j.ci] += fmt.Sprintf(" %d", len(j.atoms))
	}
	for t := range parts {
		parts[t] = strings.TrimSpace(parts[t])
	}
	return strings.Join(parts, " | ")
}

// wantHeight restates the cut rule for one type of n atoms: the common
// chunk height, from which everything else follows.
func wantHeight(n, chunkSize int) int {
	if n <= chunkSize {
		return chunkSize
	}
	parts := 0
	for whole := (n + chunkSize - 1) / chunkSize; parts < whole; {
		parts += sweepCut
	}
	h := (n + parts - 1) / parts
	for h%chunkAlign != 0 {
		h++
	}
	return min(h, chunkSize)
}

// checkCut holds one frame's chunks to the contract: every local atom in
// exactly one chunk, in index order within its type, types ascending; one
// type per chunk; a type's chunks all of the rule's height but the last,
// which takes the remainder.
func checkCut(jobs []chunkJob, types []int, nloc, ntypes, chunkSize int) error {
	seen := make([]int, nloc)
	next := make([]int, ntypes) // next unchunked atom index per type, as a lower bound
	count := make([]int, ntypes)
	for _, t := range types[:nloc] {
		count[t]++
	}
	done := make([]int, ntypes)
	prevType := 0
	for ji, j := range jobs {
		if j.ci < prevType {
			return fmt.Errorf("job %d: type %d after type %d", ji, j.ci, prevType)
		}
		prevType = j.ci
		if len(j.atoms) == 0 || len(j.atoms) > chunkSize {
			return fmt.Errorf("job %d: %d rows, ChunkSize %d", ji, len(j.atoms), chunkSize)
		}
		for _, a := range j.atoms {
			if a < next[j.ci] || a >= nloc || types[a] != j.ci {
				return fmt.Errorf("job %d (type %d): atom %d out of order, range or type", ji, j.ci, a)
			}
			next[j.ci] = a + 1
			seen[a]++
		}
		h, left := wantHeight(count[j.ci], chunkSize), count[j.ci]-done[j.ci]
		if want := min(h, left); len(j.atoms) != want {
			return fmt.Errorf("job %d (type %d, %d atoms, %d chunked): %d rows, want %d", ji, j.ci, count[j.ci], done[j.ci], len(j.atoms), want)
		}
		if left > h && h%chunkAlign != 0 && h != chunkSize {
			return fmt.Errorf("job %d: height %d is neither a multiple of %d nor ChunkSize", ji, h, chunkAlign)
		}
		done[j.ci] += len(j.atoms)
	}
	for a, n := range seen {
		if n != 1 {
			return fmt.Errorf("atom %d is in %d chunks", a, n)
		}
	}
	return nil
}

func TestChunkJobsCut(t *testing.T) {
	for _, tc := range []struct {
		name      string
		types     []int
		nloc      int
		ntypes    int
		chunkSize int
		want      string
	}{
		{"water 6x6x6", typesOf(216, 432), 648, 2, 256, "216 | 112 112 112 96"},
		{"copper 500", typesOf(500), 500, 1, 256, "128 128 128 116"},
		{"64 O + 128 H", typesOf(64, 128), 192, 2, 256, "64 | 128"},
		{"no local atoms", typesOf(3, 3), 0, 2, 256, " | "},
		{"one atom", typesOf(1), 1, 1, 256, "1"},
		{"257 atoms", typesOf(257), 257, 1, 256, "72 72 72 41"},
		{"a type with no atoms", typesOf(300, 0, 5), 305, 3, 256, "80 80 80 60 |  | 5"},
		{"ghosts are not chunked", typesOf(10, 10), 12, 2, 256, "6 | 6"},
		{"exactly ChunkSize", typesOf(256), 256, 1, 256, "256"},
		{"five whole chunks", typesOf(1100), 1100, 1, 256, "144 144 144 144 144 144 144 92"},
		{"ChunkSize below the alignment", typesOf(10), 10, 1, 4, "4 4 2"},
		{"ChunkSize off the alignment", typesOf(500), 500, 1, 125, "125 125 125 125"},
		{"244 rows no more", typesOf(256), 256, 1, 244, "64 64 64 64"},
	} {
		jobs, err := chunkJobs(nil, make([][]int, tc.ntypes), tc.types, tc.nloc, tc.chunkSize)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cutHeights(jobs, tc.ntypes); got != tc.want {
			t.Errorf("%s: cut [%s], want [%s]", tc.name, got, tc.want)
		}
		if err := checkCut(jobs, tc.types, tc.nloc, tc.ntypes, tc.chunkSize); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}

	if _, err := chunkJobs(nil, make([][]int, 2), []int{0, 1, 2, 0}, 4, 256); err == nil || err.Error() != "atom 2 has type 2 outside model" {
		t.Errorf("out-of-range type: error %v", err)
	}
	if _, err := chunkJobs(nil, make([][]int, 2), []int{0, -1}, 2, 256); err == nil {
		t.Error("negative type accepted")
	}

	// The property, on random compositions — and that the cut is a pure
	// function of (types, nloc, chunkSize): reused, dirty buffers give the
	// same chunks as fresh ones.
	dirtyJobs := []chunkJob{{1, []int{9, 9, 9}}}
	dirtyByType := [][]int{{7, 7}, {8}, nil, {1, 2, 3}}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ntypes := 1 + rng.Intn(4)
		chunkSize := 1 + rng.Intn(300)
		counts := make([]int, ntypes)
		for i := range counts {
			if rng.Intn(4) > 0 {
				counts[i] = rng.Intn(6 * chunkSize)
			}
		}
		types := typesOf(counts...)
		rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
		nloc := 0
		if len(types) > 0 {
			nloc = len(types) - rng.Intn(len(types)/4+1)
		}
		jobs, err := chunkJobs(nil, make([][]int, ntypes), types, nloc, chunkSize)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := checkCut(jobs, types, nloc, ntypes, chunkSize); err != nil {
			t.Logf("seed %d, counts %v, nloc %d, ChunkSize %d: %v", seed, counts, nloc, chunkSize, err)
			return false
		}
		again, err := chunkJobs(dirtyJobs[:0], dirtyByType[:ntypes], types, nloc, chunkSize)
		if err != nil || len(again) != len(jobs) {
			return false
		}
		for i := range jobs {
			if again[i].ci != jobs[i].ci || !reflect.DeepEqual(again[i].atoms, jobs[i].atoms) {
				t.Logf("seed %d: job %d differs on reused buffers", seed, i)
				return false
			}
		}
		dirtyJobs = again
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// headCut is the cut this one replaced: whole ChunkSize chunks and the
// remainder, claimed in frame order.
func headCut(counts []int, chunkSize int) []int {
	var rows []int
	for _, n := range counts {
		for ; n > 0; n -= min(n, chunkSize) {
			rows = append(rows, min(n, chunkSize))
		}
	}
	return rows
}

// makespan replays the sweep's cursor with rows as cost: every member claims
// the next chunk of the list when it finishes its last.
func makespan(rows []int, workers int) int {
	busy := make([]int, workers)
	for _, r := range rows {
		w := 0
		for i := range busy {
			if busy[i] < busy[w] {
				w = i
			}
		}
		busy[w] += r
	}
	end := 0
	for _, b := range busy {
		end = max(end, b)
	}
	return end
}

// claimRows plans one frame on a fresh evaluator and returns the claim
// list's heights, with the evaluator for its jobs.
func claimRows(t *testing.T, cfg Config, types []int, nloc int) (*Evaluator[float64], []int) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator[float64](m)
	if err := ev.planSweep(types, nloc); err != nil {
		t.Fatal(err)
	}
	rows := make([]int, len(ev.frame.order))
	for i, ji := range ev.frame.order {
		rows[i] = len(ev.frame.jobs[ji].atoms)
	}
	return ev, rows
}

// What the cut and the claim order buy, without a clock: the sweep's
// makespan in rows under the cursor's schedule.
func TestSweepScheduleBalance(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		counts   []int
		balanced []int // worker counts at which makespan/mean must be <= 1.05
	}{
		{"water", WaterConfig(), []int{216, 432}, []int{2, 3}},
		{"copper", CopperConfig(), []int{500}, []int{2, 4}},
	} {
		types := typesOf(tc.counts...)
		ev, rows := claimRows(t, tc.cfg, types, len(types))
		head := headCut(tc.counts, ev.cfg.ChunkSize)
		for workers := 2; workers <= 8; workers++ {
			got, was := makespan(rows, workers), makespan(head, workers)
			if got > was {
				t.Errorf("%s, %d workers: makespan %d rows over chunks %v, the whole-chunk cut %v gave %d", tc.name, workers, got, rows, head, was)
			}
		}
		for _, workers := range tc.balanced {
			if got, mean := makespan(rows, workers), float64(len(types))/float64(workers); float64(got) > 1.05*mean {
				t.Errorf("%s, %d workers: makespan %d rows over chunks %v is %.3f of the mean %.1f, want <= 1.05", tc.name, workers, got, rows, float64(got)/mean, mean)
			}
		}
	}
	if r := float64(makespan(headCut([]int{216, 432}, 256), 2)) / 324; r < 1.2 {
		t.Errorf("the whole-chunk cut of water on 2 workers replays at %.3f of the mean, expected the 1.21 this cut removes", r)
	}

	// Unequal frames, planned in turn on one evaluator: the claim list is
	// non-increasing in height, stable on job order and a permutation of
	// the jobs, which stay in type-then-index order with one chunkE slot
	// each.
	cfg := TinyConfig(3)
	cfg.ChunkSize = 16
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator[float64](m)
	for _, counts := range [][]int{{10, 30, 70}, {16, 0, 17}, {3, 3, 3}, {40, 40, 9}} {
		types := typesOf(counts...)
		nloc := len(types) - 2
		if err := ev.planSweep(types, nloc); err != nil {
			t.Fatal(err)
		}
		fs := &ev.frame
		if err := checkCut(fs.jobs, types, nloc, 3, cfg.ChunkSize); err != nil {
			t.Errorf("counts %v: %v", counts, err)
		}
		if len(fs.order) != len(fs.jobs) {
			t.Fatalf("counts %v: claim list has %d entries for %d chunks", counts, len(fs.order), len(fs.jobs))
		}
		seen := make([]bool, len(fs.jobs))
		for i, ji := range fs.order {
			if seen[ji] {
				t.Fatalf("counts %v: job %d claimed twice: %v", counts, ji, fs.order)
			}
			seen[ji] = true
			if i == 0 {
				continue
			}
			prev := fs.order[i-1]
			rows, prevRows := len(fs.jobs[ji].atoms), len(fs.jobs[prev].atoms)
			if rows > prevRows {
				t.Fatalf("counts %v: claim %d is taller than claim %d: %v", counts, i, i-1, fs.order)
			}
			if rows == prevRows && ji <= prev {
				t.Fatalf("counts %v: claims %d and %d (both %d rows) are out of job order: %v", counts, i-1, i, rows, fs.order)
			}
		}
	}
}
