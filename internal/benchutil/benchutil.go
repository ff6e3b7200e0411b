// Package benchutil is the experiment harness behind cmd/agnn-bench,
// cmd/agnn-plots and the repository-level benchmarks: it is the Go
// equivalent of the artifact's unified_single_bench.py /
// unified_distr_bench.py. A Spec names one configuration (model, dataset,
// sizes, rank count, engine, task); RunSpec executes it with warmup and
// repetitions and reports the median runtime, the measured per-rank
// communication volume, the α-β-modeled network time, and the theoretical
// volume prediction.
package benchutil

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"agnn/internal/costmodel"
	"agnn/internal/dist"
	"agnn/internal/dist/faults"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/local"
	"agnn/internal/obs"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// Engine selects the execution strategy under test.
type Engine string

// Engines. EngineGlobal is the paper's global tensor formulation (the grid
// engine when Ranks > 1); EngineRows is the 1D A-stationary row layout, the
// same engine on the p×1 grid (a full feature allgather per layer — the
// replication-factor ablation); EngineLocal is the message-passing baseline (full-batch; halo
// exchange when distributed); EngineMiniBatch is the DistDGL-style
// mini-batch baseline (training only).
const (
	EngineGlobal    Engine = "global"
	EngineRows      Engine = "rows"
	EngineLocal     Engine = "local"
	EngineMiniBatch Engine = "minibatch"
)

// Spec describes one benchmark configuration, mirroring the command-line
// surface of the artifact's benchmark scripts.
type Spec struct {
	Model     string // VA | AGNN | GAT | GCN
	Dataset   string // kronecker | uniform | makg | file
	File      string // dataset == file
	Vertices  int    // n (kronecker rounds down to a power of two)
	Edges     int    // target number of directed non-zeros
	Features  int    // k
	Layers    int    // L
	Ranks     int    // simulated process count (1 = shared-memory)
	Engine    Engine
	Inference bool // forward only vs forward+backward+update
	BatchSize int  // minibatch engine: seeds per step (paper: 16384)
	Repeat    int  // timed executions (paper: 10)
	Warmup    int  // untimed executions (paper: 2)
	Seed      int64

	// DType is the element width of the compiled plans ("f64" default,
	// "f32" for the mixed-precision kernels).
	DType string
	// Faults optionally injects deterministic faults into the distributed
	// runs (docs/ROBUSTNESS.md grammar, e.g. "delay:p=0.01,ms=1"). Runs
	// that abort with a rank failure surface as errors.
	Faults    string
	FaultSeed int64
}

// Defaults fills unset fields with the paper's experiment conventions.
func (s Spec) Defaults() Spec {
	if s.Features == 0 {
		s.Features = 16
	}
	if s.Layers == 0 {
		s.Layers = 3
	}
	if s.Ranks == 0 {
		s.Ranks = 1
	}
	if s.Engine == "" {
		s.Engine = EngineGlobal
	}
	if s.Repeat == 0 {
		s.Repeat = 10
	}
	if s.Warmup == 0 {
		s.Warmup = 2
	}
	if s.BatchSize == 0 {
		s.BatchSize = 16384
	}
	if s.Dataset == "" {
		s.Dataset = "kronecker"
	}
	if s.DType == "" {
		s.DType = tensor.F64.String()
	}
	return s
}

// Result is the measured outcome of a Spec.
type Result struct {
	Spec
	N, M           int     // actual graph size after generation
	MaxDegree      int     // d
	MedianSec      float64 // median wall time per execution
	StdSec         float64
	CommBytesMax   int64   // max per-rank bytes per execution
	CommMsgsMax    int64   // max per-rank messages per execution
	NetModelSec    float64 // α-β modeled network time per execution
	PredictedWords float64 // costmodel's forward law for this engine; 0 (not applicable) for training
	MeasuredWords  float64 // max per-rank words per execution (CommBytesMax/8)
	CommRatio      float64 // measured / predicted words (0 when p = 1 or training)

	// Latency-side validation (Ranks > 1; see costmodel.ValidateTime).
	MeanLayerSec      float64 // measured median wall time per layer
	PredictedLayerSec float64 // cost-model layer time: compute + α-β comm
	LayerTimeRatio    float64 // measured / predicted layer time

	// Cross-rank critical path (Ranks > 1 with tracing on; reconstructed
	// from the causal message log, see internal/obs/causal and
	// costmodel.ValidateCriticalPath).
	CritPathSec     float64 // mean critical-path wall time per timed execution
	CritPathWaitSec float64 // mean blocked-wait seconds on the path per execution
	CritPathRatio   float64 // measured path / α-β-γ predicted epoch time
}

// BuildGraph materializes the Spec's dataset.
func BuildGraph(s Spec) (*sparse.CSR, error) {
	switch s.Dataset {
	case "kronecker":
		scale := int(math.Floor(math.Log2(float64(s.Vertices))))
		if 1<<scale != s.Vertices {
			// The artifact "rounds down to the nearest power of two".
			s.Vertices = 1 << scale
		}
		ef := float64(s.Edges) / (2 * float64(s.Vertices))
		if ef < 1 {
			ef = 1
		}
		return graph.Kronecker(scale, ef, s.Seed), nil
	case "uniform":
		m := s.Edges / 2
		if m < s.Vertices {
			m = s.Vertices
		}
		return graph.ErdosRenyi(s.Vertices, m, s.Seed), nil
	case "makg":
		scale := int(math.Floor(math.Log2(float64(s.Vertices))))
		return graph.MAKGSim(scale, s.Seed), nil
	case "file":
		return graph.LoadFile(s.File)
	}
	return nil, fmt.Errorf("benchutil: unknown dataset %q", s.Dataset)
}

func (s Spec) gnnConfig(kind gnn.Kind) gnn.Config {
	dt, _ := tensor.ParseDType(s.DType) // validated by RunSpec before use
	return gnn.Config{
		Model: kind, Layers: s.Layers,
		InDim: s.Features, HiddenDim: s.Features, OutDim: s.Features,
		Activation: gnn.ReLU(), SelfLoops: true, Seed: s.Seed,
		DType: dt,
	}
}

// RunSpec executes the configuration and returns its Result.
func RunSpec(s Spec) (Result, error) {
	s = s.Defaults()
	kind, err := gnn.ParseKind(s.Model)
	if err != nil {
		return Result{}, err
	}
	dt, err := tensor.ParseDType(s.DType)
	if err != nil {
		return Result{}, err
	}
	s.DType = dt.String() // canonical spelling in the Result
	switch s.Engine {
	case EngineGlobal, EngineRows, EngineLocal, EngineMiniBatch:
	default:
		return Result{}, fmt.Errorf("benchutil: unknown engine %q", s.Engine)
	}
	if dt != tensor.F64 && (s.Engine == EngineLocal || s.Engine == EngineMiniBatch) {
		// Every other engine runs compiled plans at the requested width.
		// Refuse the one that would silently execute f64 kernels under an
		// f32 label.
		return Result{}, fmt.Errorf("benchutil: engine=%s runs the direct f64 message-passing kernels (got -dtype %s)", s.Engine, s.DType)
	}
	a, err := BuildGraph(s)
	if err != nil {
		return Result{}, err
	}
	st := graph.Summarize(a)
	res := Result{Spec: s, N: st.N, M: st.M, MaxDegree: st.MaxDeg}

	h := tensor.RandN(st.N, s.Features, 0.5, rand.New(rand.NewSource(s.Seed+1)))
	labels := make([]int, st.N)
	for i := range labels {
		labels[i] = i % s.Features
	}
	cfg := s.gnnConfig(kind)

	var times []float64
	var maxBytes, maxMsgs int64
	runs := s.Warmup + s.Repeat
	if s.Ranks == 1 {
		times, err = runSingle(s, cfg, a, h, labels, runs)
	} else {
		times, maxBytes, maxMsgs, err = runDistributed(s, cfg, a, h, labels, runs)
	}
	if err != nil {
		return Result{}, err
	}
	times = times[s.Warmup:]
	sort.Float64s(times)
	res.MedianSec = times[len(times)/2]
	res.StdSec = stddev(times)
	res.CommBytesMax = maxBytes
	res.CommMsgsMax = maxMsgs
	res.NetModelSec = dist.CrayAries().Time(dist.Counters{
		BytesSent: maxBytes, MsgsSent: maxMsgs})

	// The volume laws are per forward layer: a training execution also runs
	// the backward's reduces and the gradient allreduce, which they leave
	// out, so only an inference run is compared with them.
	switch {
	case !s.Inference:
	case s.Engine == EngineGlobal:
		res.PredictedWords = float64(s.Layers) * costmodel.GlobalVolume(st.N, s.Features, s.Ranks)
	case s.Engine == EngineRows:
		res.PredictedWords = float64(s.Layers) * costmodel.RowsVolume(st.N, s.Features, s.Ranks)
	default:
		res.PredictedWords = float64(s.Layers) * costmodel.LocalVolume(st.N, s.Features, st.MaxDeg, s.Ranks)
	}
	if s.Ranks > 1 {
		res.MeasuredWords = float64(maxBytes) / 8
		if s.Inference {
			res.CommRatio = costmodel.ValidateComm(res.PredictedWords, res.MeasuredWords).Ratio
		}

		// Latency closed loop: comm time from the α-β model on the measured
		// counters, compute time inferred from the measured layer wall time;
		// the collective completes before the compute starts, so they add.
		res.MeanLayerSec = res.MedianSec / float64(s.Layers)
		commSec := res.NetModelSec / float64(s.Layers)
		res.PredictedLayerSec = math.Max(res.MeanLayerSec-commSec, 0) + commSec
		res.LayerTimeRatio = costmodel.ValidateTime(res.PredictedLayerSec, res.MeanLayerSec).Ratio

		// Critical path: the runDistributed loop marks every timed
		// execution as an epoch window on rank 0, so the reconstruction
		// (when -trace/-metrics recorded the run) yields one per-execution
		// path; validate its mean against the α-β-γ epoch
		// prediction and publish the agnn_critpath_* gauges.
		if sum := obs.CriticalPath(); sum != nil && len(sum.Epochs) > 0 {
			var winNs, waitNs int64
			for _, ep := range sum.Epochs {
				winNs += ep.WindowNs
				waitNs += ep.WaitNs
			}
			n := float64(len(sum.Epochs))
			res.CritPathSec = float64(winNs) / n / 1e9
			res.CritPathWaitSec = float64(waitNs) / n / 1e9
			res.CritPathRatio = costmodel.ValidateCriticalPath(
				res.PredictedLayerSec*float64(s.Layers), res.CritPathSec).Ratio
			obs.PublishCriticalPath(sum)
		}
	}
	return res, nil
}

// runSingle executes the shared-memory configurations.
func runSingle(s Spec, cfg gnn.Config, a *sparse.CSR, h *tensor.Dense, labels []int, runs int) ([]float64, error) {
	model, err := gnn.New(cfg, a)
	if err != nil {
		return nil, err
	}
	if s.Engine == EngineLocal || s.Engine == EngineMiniBatch {
		if model, err = local.Mirror(model); err != nil {
			return nil, err
		}
	}
	loss := &gnn.CrossEntropyLoss{Labels: labels}
	opt := gnn.NewSGD(1e-4, 0)
	var times []float64
	for r := 0; r < runs; r++ {
		sp := obs.Main().Start("execution")
		t0 := time.Now()
		if s.Inference {
			model.Forward(h, false)
		} else {
			model.TrainStep(h, loss, opt)
		}
		times = append(times, time.Since(t0).Seconds())
		sp.End()
	}
	return times, nil
}

var codeExecution = obs.Code("execution")

// runDistributed executes the multi-rank configurations on the simulated
// runtime, timing rank 0 between barriers. The returned volume is the
// per-execution maximum over ranks of what the run loop itself sent: the
// counters are read around the loop, so traffic an engine sends while it is
// constructed (the local engine's halo-request exchange) is not amortised
// into it and the figure does not depend on Repeat.
func runDistributed(s Spec, cfg gnn.Config, a *sparse.CSR, h *tensor.Dense, labels []int, runs int) ([]float64, int64, int64, error) {
	var opts dist.Options
	if s.Faults != "" {
		spec, err := faults.Parse(s.Faults)
		if err != nil {
			return nil, 0, 0, err
		}
		opts.Faults = faults.New(spec, s.FaultSeed, s.Ranks)
		opts.RecvTimeout = 30 * time.Second
	}
	var times []float64                    // appended by rank 0 only
	sent := make([]dist.Counters, s.Ranks) // each rank writes its own element
	_, rankErrs, runErr := dist.TryRun(s.Ranks, opts, func(c *dist.Comm) error {
		step, closeEngine, err := newRankStep(s, c, cfg, a, h, labels)
		if err != nil {
			return err
		}
		defer closeEngine()
		before := c.Counters()
		for r := 0; r < runs; r++ {
			c.Barrier()
			// Rank 0 brackets each timed execution, closing barrier
			// included, as an epoch — an analysis window of the
			// critical-path reconstruction; the other ranks, and warm-up
			// executions, leave a plain span.
			var sp obs.Span
			if c.Rank() == 0 && r >= s.Warmup {
				sp = c.Log().Begin(obs.KindEpoch, codeExecution)
			} else {
				sp = c.StartSpan("execution")
			}
			t0 := time.Now()
			if err := step(); err != nil {
				return err
			}
			c.Barrier()
			sp.EndWith(int64(r-s.Warmup), 0, 0) // the epoch number; a plain span's payload is not read
			if c.Rank() == 0 {
				times = append(times, time.Since(t0).Seconds())
			}
		}
		after := c.Counters()
		sent[c.Rank()] = dist.Counters{
			BytesSent: after.BytesSent - before.BytesSent,
			MsgsSent:  after.MsgsSent - before.MsgsSent,
		}
		return nil
	})
	if runErr != nil {
		return nil, 0, 0, runErr
	}
	if err := dist.FirstError(rankErrs); err != nil {
		return nil, 0, 0, err
	}
	m := dist.MaxCounters(sent)
	return times, m.BytesSent / int64(runs), m.MsgsSent / int64(runs), nil
}

// newRankStep builds the Spec's engine on rank c and returns the function
// that runs one execution on it, with the engine's release.
func newRankStep(s Spec, c *dist.Comm, cfg gnn.Config, a *sparse.CSR, h *tensor.Dense, labels []int) (step func() error, closeEngine func(), err error) {
	switch s.Engine {
	case EngineGlobal, EngineRows:
		newEngine := distgnn.NewGlobalEngine
		if s.Engine == EngineRows {
			newEngine = distgnn.NewRowGrid
		}
		e, err := newEngine(c, a, cfg)
		if err != nil {
			return nil, nil, err
		}
		xd := e.SliceOwnedBlock(h)
		opt := gnn.NewSGD(1e-4, 0)
		return func() error {
			if s.Inference {
				e.Forward(xd, false)
			} else {
				e.TrainStep(xd, labels, nil, opt)
			}
			return nil
		}, e.Close, nil
	default: // EngineLocal, EngineMiniBatch: RunSpec admits no other
		e, err := distgnn.NewLocalEngine(c, a, cfg)
		if err != nil {
			return nil, nil, err
		}
		hOwned := h.SliceRows(e.Lo, e.Hi).Clone()
		opt := gnn.NewSGD(1e-4, 0)
		rng := rand.New(rand.NewSource(s.Seed + int64(c.Rank())))
		return func() error {
			if s.Engine == EngineLocal || s.Inference {
				e.Forward(hOwned)
			} else {
				seeds := sampleSeeds(e.Lo, e.Hi, s.BatchSize/s.Ranks, rng)
				e.MiniBatchStep(hOwned, labels, seeds, opt)
			}
			return nil
		}, func() {}, nil
	}
}

func sampleSeeds(lo, hi, n int, rng *rand.Rand) []int32 {
	if n > hi-lo {
		n = hi - lo
	}
	perm := rng.Perm(hi - lo)
	seeds := make([]int32, n)
	for i := 0; i < n; i++ {
		seeds[i] = int32(lo + perm[i])
	}
	return seeds
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return math.Sqrt(v / float64(len(xs)-1))
}
