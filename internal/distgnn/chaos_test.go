package distgnn

import (
	"errors"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"agnn/internal/dist"
	"agnn/internal/dist/faults"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/tensor"
)

// TestChaosFromEnv is the CI chaos-matrix entry point: the workflow sets
//
//	AGNN_CHAOS_FAULTS  fault spec (docs/ROBUSTNESS.md grammar)
//	AGNN_CHAOS_ENGINE  "grid" (resilient training) or "rows" (p×1 grid inference)
//	AGNN_CHAOS_SEED    injector seed (optional, default 1)
//
// and runs this test under -race. Locally it skips unless the variables are
// set, so the deterministic per-fault tests stay the day-to-day suite.
//
// Contract being checked: crash faults either recover through checkpoints
// (grid) or abort every rank with dist.ErrRankFailed and no deadlock
// (rows); transient faults (delay/drop) are absorbed and the
// result is bitwise identical to a fault-free run.
func TestChaosFromEnv(t *testing.T) {
	specStr := os.Getenv("AGNN_CHAOS_FAULTS")
	if specStr == "" {
		t.Skip("AGNN_CHAOS_FAULTS unset; the chaos matrix runs in CI")
	}
	spec, err := faults.Parse(specStr)
	if err != nil {
		t.Fatalf("AGNN_CHAOS_FAULTS: %v", err)
	}
	seed := int64(1)
	if s := os.Getenv("AGNN_CHAOS_SEED"); s != "" {
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("AGNN_CHAOS_SEED: %v", err)
		}
	}
	hasCrash := false
	for _, c := range spec.Clauses {
		if c.Kind == faults.Crash {
			hasCrash = true
		}
	}
	const p = 16
	switch eng := os.Getenv("AGNN_CHAOS_ENGINE"); eng {
	case "", "grid":
		chaosGrid(t, spec, seed, p, hasCrash)
	case "rows":
		chaosRows(t, spec, seed, p, hasCrash)
	default:
		t.Fatalf("AGNN_CHAOS_ENGINE=%q: want grid or rows", eng)
	}
}

// chaosGrid runs resilient distributed training under the spec and checks
// the final weights against an uninterrupted twin, bitwise.
func chaosGrid(t *testing.T, spec faults.Spec, seed int64, p int, hasCrash bool) {
	const epochs = 4
	clean, err := TrainResilient(resilientSpec(t, p, epochs))
	if err != nil {
		t.Fatalf("clean twin: %v", err)
	}
	job := resilientSpec(t, p, epochs)
	job.CheckpointDir = t.TempDir()
	job.CheckpointEvery = 1
	job.RecvTimeout = 10 * time.Second
	job.Faults = faults.New(spec, seed, p)
	res, err := TrainResilient(job)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	t.Logf("chaos grid: %d restart(s) under %q", res.Restarts, spec)
	if hasCrash && res.Restarts == 0 {
		t.Errorf("crash spec %q never fired", spec)
	}
	if !hasCrash && res.Restarts != 0 {
		t.Errorf("transient spec %q forced %d restarts", spec, res.Restarts)
	}
	assertBitwiseEqual(t, "chaos-grid", finalWeights(t, res), finalWeights(t, clean))
}

// chaosRows runs the p×1 grid's inference — the 1D row layout — under the
// spec. There is no checkpoint loop here, so a crash must surface as a clean
// all-rank ErrRankFailed abort; transient faults must leave the gathered
// output bitwise identical to the fault-free run. A forward is two rounds
// per AGNN layer (the gathers of H and of its row norms), so the engine
// runs forwards enough to cross the matrix's crash round.
func chaosRows(t *testing.T, spec faults.Spec, seed int64, p int, hasCrash bool) {
	const n, forwards = 64, 8
	a := graph.Kronecker(6, 8, 91)
	cfg := testCfg(gnn.AGNN, 2, 5, 6, 3)
	h := testFeatures(n, 5)

	run := func(inj *faults.Injector) (*tensor.Dense, []error, error) {
		var out *tensor.Dense
		var mu sync.Mutex
		opts := dist.Options{Faults: inj, RecvTimeout: 10 * time.Second}
		_, errs, err := dist.TryRun(p, opts, func(c *dist.Comm) error {
			e, err := NewRowGrid(c, a, cfg)
			if err != nil {
				return err
			}
			defer e.Close()
			x := e.SliceOwnedBlock(h)
			var o *tensor.Dense
			for i := 0; i < forwards; i++ {
				o = e.Forward(x, false)
			}
			if full := e.GatherOutput(o, cfg.OutDim); full != nil {
				mu.Lock()
				out = full
				mu.Unlock()
			}
			return nil
		})
		return out, errs, err
	}

	want, errs, err := run(nil)
	if err != nil || dist.FirstError(errs) != nil {
		t.Fatalf("clean run: %v / %v", err, dist.FirstError(errs))
	}
	done := make(chan struct{})
	var got *tensor.Dense
	var chaosErrs []error
	go func() {
		defer close(done)
		got, chaosErrs, err = run(faults.New(spec, seed, p))
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos rows run deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	if hasCrash {
		for r, e := range chaosErrs {
			if e == nil || !errors.Is(e, dist.ErrRankFailed) {
				t.Errorf("rank %d: %v, want ErrRankFailed under %q", r, e, spec)
			}
		}
		return
	}
	if first := dist.FirstError(chaosErrs); first != nil {
		t.Fatalf("transient spec %q aborted the run: %v", spec, first)
	}
	if got == nil || want == nil {
		t.Fatal("missing gathered output")
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("word %d: %v vs %v — transient faults perturbed the output under %q",
				i, got.Data[i], want.Data[i], spec)
		}
	}
}
