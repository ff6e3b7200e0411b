package distgnn

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"agnn/internal/ckpt"
	"agnn/internal/dist"
	"agnn/internal/dist/faults"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
)

// resilientSpec builds a deterministic training job on p ranks.
func resilientSpec(t *testing.T, p, epochs int) TrainSpec {
	t.Helper()
	const n = 36
	a := graph.ErdosRenyi(n, 140, 77)
	cfg := testCfg(gnn.GAT, 2, 4, 5, 3)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 3
	}
	return TrainSpec{
		P:      p,
		A:      a,
		X:      testFeatures(n, 4),
		Labels: labels,
		Cfg:    cfg,
		Epochs: epochs,
		NewOpt: func() gnn.StatefulOptimizer { return gnn.NewAdam(0.01) },
	}
}

func finalWeights(t *testing.T, res *TrainResult) []*gnn.Param {
	t.Helper()
	if res == nil || res.Params == nil {
		t.Fatal("missing final parameter snapshot")
	}
	return res.Params
}

func assertBitwiseEqual(t *testing.T, ctx string, got, want []*gnn.Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("%s: param %d name %q vs %q", ctx, i, got[i].Name, want[i].Name)
		}
		for j := range want[i].Value.Data {
			if got[i].Value.Data[j] != want[i].Value.Data[j] {
				t.Fatalf("%s: param %q word %d: %v vs %v — resume is not bitwise",
					ctx, want[i].Name, j, got[i].Value.Data[j], want[i].Value.Data[j])
			}
		}
	}
}

// TestTrainResilientCrashRecovery is the acceptance test: a seeded rank
// crash mid-training is detected, every survivor unwinds with ErrRankFailed
// (no deadlock), the world is rebuilt, and training resumes from the last
// checkpoint to the SAME final weights as an uninterrupted twin — bitwise.
// The grid plans close over the failed world's communicators, so every
// attempt, the crashed one included, must release its plans.
func TestTrainResilientCrashRecovery(t *testing.T) {
	const epochs = 6
	live := fuse.LivePlans()
	for _, p := range []int{4, 16} {
		// Uninterrupted twin.
		want, err := TrainResilient(resilientSpec(t, p, epochs))
		if err != nil {
			t.Fatalf("p=%d: clean run: %v", p, err)
		}

		// Fault-injected run: crash one rank deep into training. Rounds
		// advance fast (many collectives per epoch), so round 40 lands
		// mid-training after at least one checkpoint boundary.
		spec := resilientSpec(t, p, epochs)
		spec.CheckpointDir = t.TempDir()
		spec.CheckpointEvery = 2
		spec.RecvTimeout = 5 * time.Second
		fs, err := faults.Parse("crash:rank=1,round=40")
		if err != nil {
			t.Fatal(err)
		}
		spec.Faults = faults.New(fs, 1, p)
		got, err := TrainResilient(spec)
		if err != nil {
			t.Fatalf("p=%d: resilient run: %v", p, err)
		}
		if got.Restarts == 0 {
			t.Fatalf("p=%d: crash fault never fired (0 restarts)", p)
		}
		assertBitwiseEqual(t, "crash-recovery", finalWeights(t, got), finalWeights(t, want))
		if now := fuse.LivePlans(); now != live {
			t.Fatalf("p=%d: %d plans still live after crash recovery", p, now-live)
		}
	}
}

// TestTrainResilientResumeFlag: kill a run mid-epoch via an injected crash
// with restarts disabled (MaxRestarts can't be 0, so use a spent budget via
// a second process), then start a NEW TrainResilient with Resume=true and
// check it completes from the checkpoint to bitwise-identical weights.
func TestTrainResilientResumeFlag(t *testing.T) {
	const p, epochs = 4, 6
	want, err := TrainResilient(resilientSpec(t, p, epochs))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Phase 1: run with a crash and a restart budget of 1 that the crash
	// consumes... instead, emulate a killed process: run only the first
	// epochs with checkpointing, as if the job died before finishing.
	half := resilientSpec(t, p, 3)
	half.CheckpointDir = dir
	half.CheckpointEvery = 1
	if _, err := TrainResilient(half); err != nil {
		t.Fatal(err)
	}
	if _, ep, ok, err := ckpt.Latest(dir); err != nil || !ok || ep != 3 {
		t.Fatalf("expected checkpoint at epoch 3: ep=%d ok=%v err=%v", ep, ok, err)
	}

	// Phase 2: fresh invocation (new engine, new optimizer) resumes.
	rest := resilientSpec(t, p, epochs)
	rest.CheckpointDir = dir
	rest.CheckpointEvery = 1
	rest.Resume = true
	got, err := TrainResilient(rest)
	if err != nil {
		t.Fatal(err)
	}
	if got.StartEpoch != 3 {
		t.Fatalf("resume started at epoch %d, want 3", got.StartEpoch)
	}
	assertBitwiseEqual(t, "resume-flag", finalWeights(t, got), finalWeights(t, want))
}

// TestTrainResilientCrashBeforeFirstCheckpoint: a failure before any
// checkpoint restarts from scratch and still converges to the clean run.
func TestTrainResilientCrashBeforeFirstCheckpoint(t *testing.T) {
	const p, epochs = 4, 4
	want, err := TrainResilient(resilientSpec(t, p, epochs))
	if err != nil {
		t.Fatal(err)
	}
	spec := resilientSpec(t, p, epochs)
	spec.CheckpointDir = t.TempDir()
	spec.RecvTimeout = 5 * time.Second
	fs, err := faults.Parse("crash:rank=2,round=3")
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = faults.New(fs, 9, p)
	got, err := TrainResilient(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", got.Restarts)
	}
	assertBitwiseEqual(t, "early-crash", finalWeights(t, got), finalWeights(t, want))
}

// TestTrainResilientTransientDrops: bounded send drops are absorbed by the
// retry layer without a restart and without perturbing the result.
func TestTrainResilientTransientDrops(t *testing.T) {
	const p, epochs = 4, 3
	want, err := TrainResilient(resilientSpec(t, p, epochs))
	if err != nil {
		t.Fatal(err)
	}
	spec := resilientSpec(t, p, epochs)
	fs, err := faults.Parse("drop:p=0.02,max=2;delay:p=0.01,ms=0.1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = faults.New(fs, 21, p)
	got, err := TrainResilient(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Restarts != 0 {
		t.Fatalf("transient faults forced %d restarts", got.Restarts)
	}
	assertBitwiseEqual(t, "transient-drops", finalWeights(t, got), finalWeights(t, want))
}

// TestTrainResilientGivesUp: a persistent failure must exhaust the restart
// budget and report ErrRankFailed, not loop forever. An unbounded drop
// (max far above the retry budget) fails every send on every incarnation.
func TestTrainResilientGivesUp(t *testing.T) {
	const p = 4
	spec := resilientSpec(t, p, 2)
	spec.MaxRestarts = 2
	spec.RecvTimeout = 2 * time.Second
	fs, err := faults.Parse("drop:p=1,max=1000000")
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = faults.New(fs, 31, p)
	_, err = TrainResilient(spec)
	if err == nil {
		t.Fatal("expected failure after exhausting restarts")
	}
	if !errors.Is(err, dist.ErrRankFailed) {
		t.Fatalf("error %v does not wrap ErrRankFailed", err)
	}
}

// TestTrainResilientValidation: bad specs fail fast.
func TestTrainResilientValidation(t *testing.T) {
	spec := resilientSpec(t, 4, 2)
	spec.NewOpt = nil
	if _, err := TrainResilient(spec); err == nil {
		t.Error("nil optimizer factory accepted")
	}
	// Non-square worlds dispatch to the 1D local engine instead of failing:
	// that is what lets elastic recovery resume at p=3 after a p=4 crash.
	spec = resilientSpec(t, 3, 2)
	res, err := TrainResilient(spec)
	if err != nil {
		t.Fatalf("non-square world rejected: %v", err)
	}
	if res.FinalWorld != 3 {
		t.Errorf("FinalWorld = %d, want 3", res.FinalWorld)
	}
}

// TestTrainResilientMatchesPlainTraining: with no faults and no checkpoint
// dir, TrainResilient reduces to the plain TrainStep loop.
func TestTrainResilientMatchesPlainTraining(t *testing.T) {
	const p, epochs = 4, 3
	spec := resilientSpec(t, p, epochs)
	res, err := TrainResilient(spec)
	if err != nil {
		t.Fatal(err)
	}

	var wantLosses []float64
	var wantParams []*gnn.Param
	dist.Run(p, func(c *dist.Comm) {
		e, err := NewGlobalEngine(c, spec.A, spec.Cfg)
		if err != nil {
			t.Error(err)
			return
		}
		opt := gnn.NewAdam(0.01)
		xd := e.SliceOwnedBlock(spec.X)
		var ls []float64
		for i := 0; i < epochs; i++ {
			ls = append(ls, e.TrainStep(xd, spec.Labels, nil, opt))
		}
		if c.Rank() == 0 {
			wantLosses = ls
			wantParams = snapshotParams(e.Params())
		}
	})
	for i, want := range wantLosses {
		if res.Losses[i] != want {
			t.Fatalf("loss[%d] = %v, plain loop %v", i, res.Losses[i], want)
		}
	}
	assertBitwiseEqual(t, "plain-equivalence", res.Params, wantParams)
}

// TestNonFiniteLossStopsEveryRank: one +Inf feature on a 2×2 grid makes the
// allreduced loss non-finite at epoch 0; every rank stops there, and the job
// ends with ErrNonFiniteLoss as an application error — no restart, no epoch
// recorded.
func TestNonFiniteLossStopsEveryRank(t *testing.T) {
	spec := resilientSpec(t, 4, 3)
	spec.X = spec.X.Clone()
	spec.X.Set(5, 1, math.Inf(1))
	var epochs []int
	spec.OnEpoch = func(epoch int, _ float64) { epochs = append(epochs, epoch) }
	res, err := TrainResilient(spec)
	if !errors.Is(err, gnn.ErrNonFiniteLoss) || !strings.Contains(err.Error(), "at epoch 0") {
		t.Fatalf("err = %v, want ErrNonFiniteLoss at epoch 0", err)
	}
	if res == nil || res.Restarts != 0 {
		t.Fatalf("result %+v: a non-finite loss must end the job without a restart", res)
	}
	if len(epochs) != 0 {
		t.Fatalf("epochs %v completed past a non-finite loss", epochs)
	}
}
