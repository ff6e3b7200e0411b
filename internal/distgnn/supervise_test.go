package distgnn

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"agnn/internal/dist"
	"agnn/internal/gnn"
)

// TestSuperviseTable drives the one restart loop with a fake generation
// runner: each case lists what its generations return (the last repeats)
// and checks the worlds and resume points the loop ran them at and how the
// job ended. Worker exit statuses go through WorkerExits, as the launcher's
// process generations do.
func TestSuperviseTable(t *testing.T) {
	dir := t.TempDir()
	// The loop only locates checkpoints; a name is all it reads.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-2.agnn"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	failed, other := dist.ErrRankFailed, errors.New("bad world size")
	cases := []struct {
		name    string
		spec    TrainSpec
		gens    []error // generation i's result; past the end, the last repeats
		worlds  []int   // P of every generation run
		froms   []int   // From of every generation run (nil: all 0)
		want    error   // nil, or the sentinel the job's error wraps
		givesUp bool    // the error says the budget is spent
	}{
		{name: "first generation succeeds", spec: TrainSpec{P: 4},
			gens: []error{nil}, worlds: []int{4}},
		{name: "default budget is 3 restarts", spec: TrainSpec{P: 4},
			gens: []error{failed}, worlds: []int{4, 4, 4, 4}, want: failed, givesUp: true},
		{name: "budget exhausted", spec: TrainSpec{P: 4, MaxRestarts: 2},
			gens: []error{failed}, worlds: []int{4, 4, 4}, want: failed, givesUp: true},
		{name: "recovers within budget", spec: TrainSpec{P: 4, MaxRestarts: 2},
			gens: []error{failed, failed, nil}, worlds: []int{4, 4, 4}},
		{name: "elastic stops at MinRanks", spec: TrainSpec{P: 4, Elastic: true, MinRanks: 2, MaxRestarts: 4},
			gens: []error{failed}, worlds: []int{4, 3, 2, 2, 2}, want: failed, givesUp: true},
		{name: "elastic floor defaults to 1", spec: TrainSpec{P: 3, Elastic: true, MaxRestarts: 3},
			gens: []error{failed}, worlds: []int{3, 2, 1, 1}, want: failed, givesUp: true},
		{name: "non-finite loss stops", spec: TrainSpec{P: 4, Elastic: true},
			gens: []error{gnn.ErrNonFiniteLoss}, worlds: []int{4}, want: gnn.ErrNonFiniteLoss},
		{name: "other error stops", spec: TrainSpec{P: 4},
			gens: []error{other}, worlds: []int{4}, want: other},
		{name: "resume after generation 0", spec: TrainSpec{P: 4, CheckpointDir: dir},
			gens: []error{failed, nil}, worlds: []int{4, 4}, froms: []int{0, 2}},
		{name: "resume flag resumes generation 0", spec: TrainSpec{P: 4, CheckpointDir: dir, Resume: true},
			gens: []error{nil}, worlds: []int{4}, froms: []int{2}},
		{name: "worker crash relaunches", spec: TrainSpec{P: 4, Elastic: true},
			gens: []error{WorkerExits([]int{0, 1, 1, 1}), WorkerExits([]int{0, 0, 0})}, worlds: []int{4, 3}},
		{name: "killed worker relaunches", spec: TrainSpec{P: 2},
			gens: []error{WorkerExits([]int{-1, 0}), WorkerExits([]int{0, 0})}, worlds: []int{2, 2}},
		{name: "worker non-finite exit stops", spec: TrainSpec{P: 2},
			gens: []error{WorkerExits([]int{ExitNonFinite, ExitNonFinite})}, worlds: []int{2}, want: gnn.ErrNonFiniteLoss},
		{name: "non-finite exit outranks a crash", spec: TrainSpec{P: 3},
			gens: []error{WorkerExits([]int{ExitNonFinite, 1, 0})}, worlds: []int{3}, want: gnn.ErrNonFiniteLoss},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var worlds, froms []int
			last, err := Supervise(tc.spec, func(g Generation) error {
				if g.N != len(worlds) {
					t.Fatalf("generation numbered %d, want %d", g.N, len(worlds))
				}
				if resume := tc.spec.Resume || g.N > 0; g.Resume != resume {
					t.Errorf("generation %d: Resume %v, want %v", g.N, g.Resume, resume)
				}
				if (g.From == 0) != (g.Path == "") {
					t.Errorf("generation %d: From %d with Path %q", g.N, g.From, g.Path)
				}
				worlds, froms = append(worlds, g.P), append(froms, g.From)
				return tc.gens[min(g.N, len(tc.gens)-1)]
			})
			if !reflect.DeepEqual(worlds, tc.worlds) {
				t.Errorf("worlds %v, want %v", worlds, tc.worlds)
			}
			if tc.froms == nil {
				tc.froms = make([]int, len(tc.worlds))
			}
			if !reflect.DeepEqual(froms, tc.froms) {
				t.Errorf("resume epochs %v, want %v", froms, tc.froms)
			}
			if last.N != len(worlds)-1 || last.P != worlds[len(worlds)-1] {
				t.Errorf("last generation %+v, want the one run last", last)
			}
			if tc.want == nil && err != nil {
				t.Errorf("job failed: %v", err)
			} else if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("error %v does not wrap %v", err, tc.want)
			}
			if got := err != nil && strings.Contains(err.Error(), "giving up"); got != tc.givesUp {
				t.Errorf("gave up %v, want %v (error %v)", got, tc.givesUp, err)
			}
		})
	}
}
