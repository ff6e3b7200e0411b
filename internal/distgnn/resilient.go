package distgnn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"agnn/internal/ckpt"
	"agnn/internal/dist"
	"agnn/internal/dist/faults"
	distnet "agnn/internal/dist/net"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// TrainSpec describes a resilient distributed full-batch training job on
// the grid engine. All fields are SPMD inputs: every simulated rank
// sees the same values, mirroring how each process of an MPI job parses
// the same command line.
type TrainSpec struct {
	P      int                          // world size: √P×√P grid when a perfect square, else P×1
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
	// (default 1). Every size trains on the grid: a square one on √p×√p,
	// any other on p×1, so a checkpoint moves between them unchanged.
	Elastic  bool
	MinRanks int

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

// Generation is one attempt of a distributed job: the N-th, counted from
// 0, on P ranks. A resuming generation starts from the latest checkpoint,
// epoch From in file Path; any other starts at epoch 0 with Path "".
type Generation struct {
	N, P   int
	Resume bool
	From   int
	Path   string
}

// locate points g at the latest checkpoint in dir when g resumes and dir
// holds one, and at epoch 0 otherwise.
func (g *Generation) locate(dir string) error {
	g.From, g.Path = 0, ""
	if !g.Resume || dir == "" {
		return nil
	}
	path, ep, ok, err := ckpt.Latest(dir)
	if ok {
		g.From, g.Path = int(ep), path
	}
	return err
}

// Supervise is the restart loop of every distributed job, whether its
// ranks are goroutines (TrainResilient) or OS processes (agnn-train
// -launch). It calls run with generations of spec.P ranks until one
// returns nil. Only an error wrapping dist.ErrRankFailed restarts: the next
// generation resumes from the latest checkpoint in spec.CheckpointDir —
// one rank smaller under spec.Elastic, down to spec.MinRanks (default 1) —
// until spec.MaxRestarts (default 3) restarts are spent. Any other error
// (gnn.ErrNonFiniteLoss: a restart would train into the same loss) stops
// the job. The first generation resumes only when spec.Resume is set. It
// returns the last generation run.
func Supervise(spec TrainSpec, run func(Generation) error) (Generation, error) {
	maxRestarts := spec.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 3
	}
	minRanks := max(spec.MinRanks, 1)
	g := Generation{P: spec.P, Resume: spec.Resume}
	for {
		t0 := time.Now()
		if err := g.locate(spec.CheckpointDir); err != nil {
			return g, err
		}
		if g.N > 0 {
			metrics.RecoverySeconds.Observe(time.Since(t0).Seconds())
		}
		err := run(g)
		if !errors.Is(err, dist.ErrRankFailed) {
			return g, err // done, or an error retrying won't help
		}
		if g.N == maxRestarts {
			return g, fmt.Errorf("distgnn: giving up after %d restarts: %w", maxRestarts, err)
		}
		// Rank failure: rebuild the world from the last durable checkpoint —
		// elastically one rank smaller (the survivors repartition), or at the
		// original size when the failed rank is expected back.
		g.N++
		g.Resume = true
		if spec.Elastic && g.P > minRanks {
			g.P--
		}
	}
}

// ExitNonFinite is a worker process's exit status when the loss stopped
// being finite: every rank stops at the same epoch.
const ExitNonFinite = 3

// WorkerExits maps the exit statuses of one generation's worker processes
// to what Supervise acts on: nil when every worker exited 0,
// gnn.ErrNonFiniteLoss when any exited with ExitNonFinite, and
// dist.ErrRankFailed for any other failure — a crash, a survivor's unwind,
// a kill.
func WorkerExits(codes []int) error {
	failed, nonFinite := 0, false
	for _, c := range codes {
		if c != 0 {
			failed++
			nonFinite = nonFinite || c == ExitNonFinite
		}
	}
	switch {
	case failed == 0:
		return nil
	case nonFinite:
		return fmt.Errorf("%d worker(s) failed: %w", failed, gnn.ErrNonFiniteLoss)
	}
	return fmt.Errorf("%d worker(s) failed: %w", failed, dist.ErrRankFailed)
}

// checked validates spec and fills the defaults of its per-rank body; it
// returns the spec and the options its worlds run with.
func (spec TrainSpec) checked() (TrainSpec, dist.Options, error) {
	if spec.Epochs < 0 {
		return spec, dist.Options{}, fmt.Errorf("distgnn: negative epoch count %d", spec.Epochs)
	}
	if spec.NewOpt == nil {
		return spec, dist.Options{}, fmt.Errorf("distgnn: TrainSpec.NewOpt is required")
	}
	if spec.CheckpointEvery <= 0 {
		spec.CheckpointEvery = 1
	}
	if spec.RecvTimeout <= 0 {
		spec.RecvTimeout = 30 * time.Second
	}
	return spec, dist.Options{Faults: spec.Faults, RecvTimeout: spec.RecvTimeout}, nil
}

// TrainResilient trains to spec.Epochs in this process, surviving injected
// or genuine rank failures: Supervise runs each generation on a fresh
// in-process world (dist.TryRun). When any rank fails, every survivor
// unwinds with dist.ErrRankFailed and training re-enters from the last
// durable checkpoint. Because the engine's construction is seeded and the
// fault model never corrupts payloads, a resumed run reproduces the
// uninterrupted run's weights bitwise. Once the spec checks out, the result
// reports what the job ran, also when it ends with an error.
func TrainResilient(spec TrainSpec) (*TrainResult, error) {
	spec, opts, err := spec.checked()
	if err != nil {
		return nil, err
	}
	res := &TrainResult{Losses: make([]float64, spec.Epochs)}
	var mu sync.Mutex // guards res fields written from rank 0
	last, err := Supervise(spec, func(g Generation) error {
		if g.N == 0 {
			res.StartEpoch = g.From
		}
		cs, errs, err := dist.TryRun(g.P, opts, func(c *dist.Comm) error {
			return trainRanks(c, spec, g, res, &mu)
		})
		if err != nil {
			return err // setup error: wrong world size etc.
		}
		res.Counters = cs
		return dist.FirstError(errs)
	})
	res.Restarts, res.FinalWorld = last.N, last.P
	return res, err
}

// TrainWorker runs ONE rank of a multi-process training job over a wire
// transport endpoint (internal/dist/net): the per-rank body of
// TrainResilient, bound to this process's endpoint via dist.TryRunLocal.
// The world size comes from the endpoint; spec.P is ignored. There is no
// restart loop here — when a peer dies the survivors unwind with
// dist.ErrRankFailed and the error is returned, so the launching process's
// Supervise can relaunch the survivors with Resume set (the elastic path of
// docs/ROBUSTNESS.md). The endpoint is not closed; the caller owns it.
func TrainWorker(spec TrainSpec, ep distnet.Endpoint) (*TrainResult, error) {
	spec, opts, err := spec.checked()
	if err != nil {
		return nil, err
	}
	g := Generation{P: ep.Size(), Resume: spec.Resume}
	if err := g.locate(spec.CheckpointDir); err != nil {
		return nil, err
	}
	w, err := dist.NewNetWorld(ep, opts)
	if err != nil {
		return nil, err
	}
	res := &TrainResult{Losses: make([]float64, spec.Epochs), StartEpoch: g.From, FinalWorld: g.P}
	var mu sync.Mutex
	cnt, runErr := w.TryRunLocal(func(c *dist.Comm) error {
		return trainRanks(c, spec, g, res, &mu)
	})
	res.Counters = []dist.Counters{cnt}
	return res, runErr
}

// trainRanks is the per-rank body of generation g: build the engine — the
// √p×√p grid when p is a perfect square, the p×1 grid otherwise — apply g's
// checkpoint, run epochs [g.From, spec.Epochs), checkpointing at every
// boundary multiple of spec.CheckpointEvery, and stop at the first
// non-finite loss (gnn.FiniteLoss).
func trainRanks(c *dist.Comm, spec TrainSpec, g Generation, res *TrainResult, mu *sync.Mutex) error {
	newEngine := NewGlobalEngine
	if _, err := graph.SquareGrid(c.Size()); err != nil {
		newEngine = NewRowGrid
	}
	e, err := newEngine(c, spec.A, spec.Cfg)
	if err != nil {
		return err
	}
	// Deferred, so it also runs when a rank failure unwinds this body: the
	// next attempt's engines then start with no plan of this one live.
	defer e.Close()
	xd := e.SliceOwnedBlock(spec.X)
	opt := spec.NewOpt()
	params := e.Params()

	if g.Path != "" {
		// Every rank loads the same checkpoint file, so the replicated
		// weights and optimizer moments stay bit-identical without a
		// broadcast — the same invariant seeded construction provides.
		st, err := ckpt.Load(g.Path, params)
		if err != nil {
			return fmt.Errorf("rank %d: resume from %s: %w", c.Rank(), g.Path, err)
		}
		if st.Opt != nil {
			if err := opt.ImportState(params, st.Opt); err != nil {
				return fmt.Errorf("rank %d: resume optimizer state: %w", c.Rank(), err)
			}
		}
	}

	for epoch := g.From; epoch < spec.Epochs; epoch++ {
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
		if spec.CheckpointDir != "" && (done%spec.CheckpointEvery == 0 || done == spec.Epochs) {
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
