package distgnn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"agnn/internal/ckpt"
	"agnn/internal/dist"
	"agnn/internal/dist/faults"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// TrainSpec describes a resilient distributed full-batch training job on
// the 2D grid engine. All fields are SPMD inputs: every simulated rank
// sees the same values, mirroring how each process of an MPI job parses
// the same command line.
type TrainSpec struct {
	P      int                          // world size (must be a perfect square for the grid)
	A      *sparse.CSR                  // adjacency (replicated; each rank slices its block)
	X      *tensor.Dense                // full feature matrix, n×InDim
	Labels []int                        // per-vertex class labels
	Mask   []bool                       // optional training mask (nil = all vertices)
	Cfg    gnn.Config                   // model config; Cfg.Seed drives deterministic init
	Epochs int                          // full-batch epochs to reach
	NewOpt func() gnn.StatefulOptimizer // per-rank optimizer factory

	// Robustness knobs.
	CheckpointDir   string           // "" disables checkpointing
	CheckpointEvery int              // epochs between checkpoints (default 1)
	Resume          bool             // start from the latest checkpoint in CheckpointDir
	Faults          *faults.Injector // optional fault injection (persists across restarts)
	RecvTimeout     time.Duration    // failure-detection deadline (default 30s)
	MaxRestarts     int              // world rebuilds before giving up (default 3)

	// Elastic, when set, shrinks the world by one rank on each rank failure
	// instead of rebuilding at P: survivors repartition the graph at the new
	// size (checkpoints are world-size independent — weights are replicated)
	// and resume from the last durable epoch. MinRanks bounds the shrink
	// (default 1). Non-square sizes train on the 1D local engine, square
	// sizes on the 2D grid.
	Elastic  bool
	MinRanks int

	// Straggler-detection tuning, forwarded to dist.Options (agnn-train
	// -straggler-factor / -straggler-floor). Zero keeps the dist defaults.
	StragglerFactor float64       // wait-vs-median multiple that flags a straggler
	StragglerFloor  time.Duration // minimum superstep wait ever flagged

	// OnEpoch, when set, is called on rank 0 after every completed epoch
	// with the global mean loss. Called again for re-executed epochs after
	// a restart.
	OnEpoch func(epoch int, loss float64)
}

// TrainResult reports what a TrainResilient call actually executed.
type TrainResult struct {
	Losses     []float64    // per-epoch global mean loss, indexed by epoch; epochs skipped via resume stay zero
	StartEpoch int          // first epoch executed by this call (after resume)
	Restarts   int          // world rebuilds forced by rank failures
	FinalWorld int          // rank count of the attempt that completed (shrinks under Elastic)
	Params     []*gnn.Param // rank-0 snapshot of the final replicated parameters (Grad nil)
	Counters   []dist.Counters
}

// TrainResilient trains to spec.Epochs, surviving injected or genuine rank
// failures: when any rank fails, every survivor unwinds with
// dist.ErrRankFailed, the world is torn down and rebuilt, and training
// re-enters from the last durable checkpoint. Because the engine's
// construction is seeded and the fault model never corrupts payloads,
// a resumed run reproduces the uninterrupted run's weights bitwise. Any
// other error a rank returns — gnn.ErrNonFiniteLoss when the loss stops
// being finite — ends the job without a restart and comes back with what
// the job ran.
func TrainResilient(spec TrainSpec) (*TrainResult, error) {
	if spec.Epochs < 0 {
		return nil, fmt.Errorf("distgnn: negative epoch count %d", spec.Epochs)
	}
	if spec.NewOpt == nil {
		return nil, fmt.Errorf("distgnn: TrainSpec.NewOpt is required")
	}
	every := spec.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	timeout := spec.RecvTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	maxRestarts := spec.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 3
	}
	opts := dist.Options{
		Faults:          spec.Faults,
		RecvTimeout:     timeout,
		StragglerFactor: spec.StragglerFactor,
		StragglerFloor:  spec.StragglerFloor,
	}

	res := &TrainResult{Losses: make([]float64, spec.Epochs)}
	startEpoch, startPath := 0, ""
	if spec.Resume && spec.CheckpointDir != "" {
		path, ep, ok, err := ckpt.Latest(spec.CheckpointDir)
		if err != nil {
			return nil, err
		}
		if ok {
			startEpoch, startPath = int(ep), path
		}
	}
	res.StartEpoch = startEpoch
	minRanks := spec.MinRanks
	if minRanks < 1 {
		minRanks = 1
	}

	p := spec.P
	var mu sync.Mutex // guards res fields written from rank 0
	for {
		from, path := startEpoch, startPath
		cs, errs, err := dist.TryRun(p, opts, func(c *dist.Comm) error {
			return trainRanks(c, spec, from, path, every, res, &mu)
		})
		if err != nil {
			return nil, err // setup error: wrong world size etc.
		}
		first := dist.FirstError(errs)
		if first == nil {
			res.Counters = cs
			res.FinalWorld = p
			return res, nil
		}
		if !errors.Is(first, dist.ErrRankFailed) {
			return res, first // application error (a non-finite loss…): retrying won't help
		}
		// Rank failure: rebuild the world from the last durable checkpoint —
		// elastically one rank smaller (the survivors repartition), or at the
		// original size when the failed rank is expected back.
		res.Restarts++
		if res.Restarts > maxRestarts {
			return nil, fmt.Errorf("distgnn: giving up after %d restarts: %w", maxRestarts, first)
		}
		if spec.Elastic && p > minRanks {
			p--
		}
		t0 := time.Now()
		startEpoch, startPath = 0, ""
		if spec.CheckpointDir != "" {
			path, ep, ok, lerr := ckpt.Latest(spec.CheckpointDir)
			if lerr != nil {
				return nil, lerr
			}
			if ok {
				startEpoch, startPath = int(ep), path
			}
		}
		metrics.RecoverySeconds.Observe(time.Since(t0).Seconds())
	}
}

// trainEngine is the slice of engine surface the resilient loop needs; the
// 2D grid engine and the 1D local engine both provide it, so elastic
// recovery can fall from a square world onto any survivor count.
type trainEngine interface {
	Params() []*gnn.Param
	TrainStep(x *tensor.Dense, labels []int, mask []bool, opt gnn.Optimizer) float64
}

// newTrainEngine dispatches on world size: perfect squares get the 2D grid
// engine (the paper's layout), everything else the 1D local-formulation
// engine. Both draw the same replicated parameters from Cfg.Seed (names W,
// beta, a1, a2 in layer order), so a checkpoint written under either layout
// restores under the other — the property elastic recovery relies on when
// p=4 shrinks to p=3. Returns the engine, this rank's input block, and what
// releases the engine's plans (the local engine holds none).
func newTrainEngine(c *dist.Comm, spec TrainSpec) (trainEngine, *tensor.Dense, func(), error) {
	if _, err := graph.SquareGrid(c.Size()); err == nil {
		e, err := NewGlobalEngine(c, spec.A, spec.Cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return e, e.SliceOwnedBlock(spec.X), e.Close, nil
	}
	e, err := NewLocalEngine(c, spec.A, spec.Cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return e, spec.X.SliceRows(e.Lo, e.Hi).Clone(), func() {}, nil
}

// trainRanks is the per-rank body: build the engine, apply the checkpoint,
// run epochs [from, spec.Epochs), checkpointing at every boundary multiple
// of `every`, and stop at the first non-finite loss (gnn.FiniteLoss).
func trainRanks(c *dist.Comm, spec TrainSpec, from int, path string, every int, res *TrainResult, mu *sync.Mutex) error {
	e, xd, closeEngine, err := newTrainEngine(c, spec)
	if err != nil {
		return err
	}
	// Deferred, so it also runs when a rank failure unwinds this body: the
	// next attempt's engines then start with no plan of this one live.
	defer closeEngine()
	opt := spec.NewOpt()
	params := e.Params()

	if path != "" {
		// Every rank loads the same checkpoint file, so the replicated
		// weights and optimizer moments stay bit-identical without a
		// broadcast — the same invariant seeded construction provides.
		st, err := ckpt.Load(path, params)
		if err != nil {
			return fmt.Errorf("rank %d: resume from %s: %w", c.Rank(), path, err)
		}
		if st.Opt != nil {
			if err := opt.ImportState(params, st.Opt); err != nil {
				return fmt.Errorf("rank %d: resume optimizer state: %w", c.Rank(), err)
			}
		}
	}

	for epoch := from; epoch < spec.Epochs; epoch++ {
		et0 := obs.Now()
		loss := e.TrainStep(xd, spec.Labels, spec.Mask, opt)
		// The loss is allreduced, so every rank stops at the same epoch and
		// none waits on a message the others will not send.
		if err := gnn.FiniteLoss(epoch, loss); err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			res.Losses[epoch] = loss
			mu.Unlock()
			if spec.OnEpoch != nil {
				spec.OnEpoch(epoch, loss)
			}
		}
		done := epoch + 1
		if spec.CheckpointDir != "" && (done%every == 0 || done == spec.Epochs) {
			// One mark per rank brackets the save and the barrier: a span in
			// the trace, checkpoint time on the critical path.
			sp := c.Log().Begin(obs.KindCheckpoint, codeCheckpoint)
			// Weights are replicated, so rank 0's snapshot is everyone's.
			if c.Rank() == 0 {
				st := ckpt.State{Epoch: int64(done), Seed: spec.Cfg.Seed,
					World: int64(c.Size()), Opt: opt.ExportState(params)}
				if _, err := ckpt.Save(spec.CheckpointDir, st, params); err != nil {
					sp.End()
					return fmt.Errorf("rank 0: checkpoint at epoch %d: %w", done, err)
				}
			}
			// No rank crosses the boundary until the checkpoint is durable:
			// a failure in epoch done+1 can then always restart from `done`.
			c.Barrier()
			sp.End()
		}
		// Rank 0's epoch marks delimit the analysis windows of the
		// critical-path reconstruction (internal/obs/causal); the window
		// includes the checkpoint barrier so its cost is attributed too.
		if c.Rank() == 0 {
			obs.TrainEpoch(c.Log(), epoch, et0)
		}
	}

	if c.Rank() == 0 {
		mu.Lock()
		res.Params = snapshotParams(params)
		mu.Unlock()
	}
	return nil
}

var codeCheckpoint = obs.Code("checkpoint")

func snapshotParams(params []*gnn.Param) []*gnn.Param {
	out := make([]*gnn.Param, len(params))
	for i, p := range params {
		out[i] = &gnn.Param{Name: p.Name, Value: p.Value.Clone()}
	}
	return out
}
