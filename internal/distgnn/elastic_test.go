package distgnn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"agnn/internal/dist"
	"agnn/internal/dist/faults"
	distnet "agnn/internal/dist/net"
	"agnn/internal/fuse"
	"agnn/internal/tensor"
)

// TestElasticRecoveryShrinksWorld: a rank crash at p=4 with Elastic set
// resumes from the last checkpoint at p=3 — a non-square size, so recovery
// repartitions onto the 3×1 grid — and trains to completion, at both widths
// and with one or three GAT heads.
func TestElasticRecoveryShrinksWorld(t *testing.T) {
	const p, epochs = 4, 5
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, heads := range []int{1, 3} {
			name := fmt.Sprintf("%s/GAT", dt)
			if heads > 1 {
				name += fmt.Sprintf("-%dheads", heads)
			}
			t.Run(name, func(t *testing.T) {
				spec := resilientSpec(t, p, epochs)
				spec.Cfg.DType, spec.Cfg.Heads = dt, heads
				spec.CheckpointDir = t.TempDir()
				spec.CheckpointEvery = 1
				spec.RecvTimeout = 10 * time.Second
				spec.Elastic = true
				spec.MinRanks = 2
				spec.Faults = faults.New(faults.Spec{Clauses: []faults.Clause{{
					Kind: faults.Crash, Rank: 1, Round: 40,
				}}}, 1, p)

				res, err := TrainResilient(spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.FinalWorld != p-1 {
					t.Fatalf("FinalWorld = %d after %d restart(s), want %d", res.FinalWorld, res.Restarts, p-1)
				}
				for ep, l := range res.Losses {
					if l == 0 {
						t.Errorf("epoch %d loss missing after elastic recovery", ep)
					}
				}
				if res.Params == nil {
					t.Error("no final parameter snapshot")
				}
			})
		}
	}
}

// TestElasticFloorHoldsAtMinRanks: repeated crashes never shrink the world
// below MinRanks.
func TestElasticFloorHoldsAtMinRanks(t *testing.T) {
	const p, epochs = 3, 4
	spec := resilientSpec(t, p, epochs)
	spec.CheckpointDir = t.TempDir()
	spec.RecvTimeout = 10 * time.Second
	spec.Elastic = true
	spec.MinRanks = 2
	spec.MaxRestarts = 4
	// One crash per world generation: rank 1 crashes once, and after the
	// shrink the injector is spent (crash clauses fire once per injector).
	spec.Faults = faults.New(faults.Spec{Clauses: []faults.Clause{{
		Kind: faults.Crash, Rank: 1, Round: 30,
	}}}, 5, p)
	res, err := TrainResilient(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalWorld < spec.MinRanks {
		t.Errorf("FinalWorld = %d fell below MinRanks = %d", res.FinalWorld, spec.MinRanks)
	}
}

// TestCheckpointRestoresAcrossGridShapes: a checkpoint written on the 2×2
// grid restores into a 3×1 grid world — the world-size independence elastic
// recovery depends on.
func TestCheckpointRestoresAcrossGridShapes(t *testing.T) {
	const epochs = 4
	dir := t.TempDir()

	// Phase 1: train the first half on the square world (2×2 grid).
	spec := resilientSpec(t, 4, 2)
	spec.CheckpointDir = dir
	res1, err := TrainResilient(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res1.FinalWorld != 4 {
		t.Fatalf("phase 1 world = %d", res1.FinalWorld)
	}

	// Phase 2: resume the remaining epochs at p=3 (3×1 grid).
	spec2 := resilientSpec(t, 3, epochs)
	spec2.CheckpointDir = dir
	spec2.Resume = true
	res2, err := TrainResilient(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.StartEpoch != 2 {
		t.Errorf("resume started at epoch %d, want 2", res2.StartEpoch)
	}
	for ep := 2; ep < epochs; ep++ {
		if res2.Losses[ep] == 0 {
			t.Errorf("epoch %d loss missing after resuming on another grid", ep)
		}
	}
}

// TestSurvivorsNameFailedRank (satellite): when rank k crashes mid-
// collective, every survivor's error wraps dist.ErrRankFailed and names
// rank k — for both the 2D grid's training and the p×1 grid's inference.
func TestSurvivorsNameFailedRank(t *testing.T) {
	const p = 4
	spec := resilientSpec(t, p, 3)

	cases := []struct {
		name   string
		victim int
		body   func(c *dist.Comm) error
	}{
		{"grid", 2, func(c *dist.Comm) error {
			e, err := NewGlobalEngine(c, spec.A, spec.Cfg)
			if err != nil {
				return err
			}
			opt := spec.NewOpt()
			xd := e.SliceOwnedBlock(spec.X)
			for ep := 0; ep < 6; ep++ {
				e.TrainStep(xd, spec.Labels, spec.Mask, opt)
			}
			return nil
		}},
		{"rows", 1, func(c *dist.Comm) error {
			e, err := NewRowGrid(c, spec.A, spec.Cfg)
			if err != nil {
				return err
			}
			defer e.Close()
			x := e.SliceOwnedBlock(spec.X)
			for i := 0; i < 8; i++ {
				e.Forward(x, false)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faults.New(faults.Spec{Clauses: []faults.Clause{{
				Kind: faults.Crash, Rank: tc.victim, Round: 5,
			}}}, 1, p)
			opts := dist.Options{Faults: inj, RecvTimeout: 10 * time.Second}
			_, errs, err := dist.TryRun(p, opts, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			needle := fmt.Sprintf("rank %d", tc.victim)
			for r, rerr := range errs {
				if rerr == nil {
					t.Errorf("rank %d: nil error, want ErrRankFailed", r)
					continue
				}
				if !errors.Is(rerr, dist.ErrRankFailed) {
					t.Errorf("rank %d: %v does not wrap ErrRankFailed", r, rerr)
				}
				if r != tc.victim && !strings.Contains(rerr.Error(), needle) {
					t.Errorf("rank %d error does not name the failed rank %d: %v", r, tc.victim, rerr)
				}
			}
		})
	}
}

// TestTrainWorkerOverChanTransport: the per-process TrainWorker entry run
// over the in-process channel transport produces the same losses as the
// monolithic TryRun path at the same world size, bitwise — on the 2×1 grid
// (p = 2) and on the 2×2 grid (p = 4), whose plans every worker must have
// released by the time it does.
func TestTrainWorkerOverChanTransport(t *testing.T) {
	const epochs = 3
	for _, p := range []int{2, 4} {
		spec := resilientSpec(t, p, epochs)
		want, err := TrainResilient(spec)
		if err != nil {
			t.Fatal(err)
		}

		live := fuse.LivePlans()
		cw, err := distnet.NewChanWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*TrainResult, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				s := spec
				s.RecvTimeout = 20 * time.Second
				results[r], errs[r] = TrainWorker(s, cw.Endpoint(r))
			}(r)
		}
		wg.Wait()
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("p=%d worker %d: %v", p, r, errs[r])
			}
			if results[r].FinalWorld != p {
				t.Errorf("p=%d worker %d FinalWorld = %d", p, r, results[r].FinalWorld)
			}
		}
		for ep := 0; ep < epochs; ep++ {
			if results[0].Losses[ep] != want.Losses[ep] {
				t.Errorf("p=%d epoch %d: worker loss %v vs in-process %v — transports diverge",
					p, ep, results[0].Losses[ep], want.Losses[ep])
			}
		}
		if now := fuse.LivePlans(); now != live {
			t.Errorf("p=%d: %d plans still live after TrainWorker returned", p, now-live)
		}
	}
}
