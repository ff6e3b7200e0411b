package main

// surface.go is the benchmark's only door into the program: the one file
// that imports agnn/internal/... Every other file passes the aliased types
// below around as opaque values and reaches their contents through the
// functions here, so a refactor that changes the program's API needs a
// follow-up in this file alone. Nothing here measures anything.

import (
	"context"
	"errors"
	"fmt"
	gonet "net"
	"net/http"
	"sync"
	"time"

	"agnn/internal/ckpt"
	"agnn/internal/dist"
	distnet "agnn/internal/dist/net"
	"agnn/internal/distgnn"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/kernels"
	"agnn/internal/obs/metrics"
	"agnn/internal/obs/serve"
	"agnn/internal/par"
	"agnn/internal/serving"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

type (
	coo        = sparse.COO
	csr        = sparse.CSR
	dense      = tensor.Dense
	model      = gnn.Model
	lossFn     = gnn.Loss
	optimizer  = gnn.StatefulOptimizer
	comm       = dist.Comm
	counters   = dist.Counters
	wireStats  = distnet.WireStats
	gridEngine = distgnn.GlobalEngine
	engine     = serving.Engine
	stageTimes = serving.Timing
)

// ---- sparse / tensor ----

// newCOO copies an edge list into the program's coordinate format. FromCOO
// sorts its argument in place, so every set-up gets a fresh copy.
func newCOO(e *edgeList) *coo {
	c := sparse.NewCOO(e.n, e.n, len(e.src))
	c.Row = append(c.Row, e.src...)
	c.Col = append(c.Col, e.dst...)
	return c
}

func fromCOO(c *coo) *csr { return sparse.FromCOO(c) }

func newDense(rows, cols int, data []float64) *dense { return tensor.NewDenseFrom(rows, cols, data) }
func zeroDense(rows, cols int) *dense                { return tensor.NewDense(rows, cols) }
func denseData(d *dense) []float64                   { return d.Data }
func denseCols(d *dense) int                         { return d.Cols }
func denseRow(d *dense, i int) []float64             { return d.Row(i) }

func nnz(a *csr) int       { return a.NNZ() }
func rowsOf(a *csr) int    { return a.Rows }
func maxRowNNZ(a *csr) int { return a.MaxRowNNZ() }

func mmInto(out, a, b *dense)        { tensor.MMInto(out, a, b) }
func tmmAccumulate(out, a, b *dense) { tensor.TMMAccumulate(out, a, b, nil) }
func spmmInto(a *csr, out, x *dense) { a.MulDenseInto(out, x) }
func sddmm(a *csr, x, y *dense) *csr { return sparse.SDDMM(a, x, y) }
func rowSoftmaxInto(v []float64, a *csr) {
	sparse.RowSoftmaxInto(v, a)
}
func transpose(a *csr) *csr     { return a.Transpose() }
func fingerprint(a *csr) uint64 { return a.Fingerprint() }

// ---- kernels ----

func fusedAttnAGNN(a *csr, h, x *dense) *dense {
	return kernels.FusedSoftmaxApply(a, kernels.AGNNEdgeScore(h, tensor.RowNorms(h), 1), x)
}

func fusedAttnGAT(a *csr, u, v []float64, x *dense) *dense {
	return kernels.FusedSoftmaxApply(a, kernels.GATEdgeScore(u, v, 0.2), x)
}

// ---- par ----

func setWorkers(n int) int { return par.SetWorkers(n) }
func workers() int         { return par.Workers() }
func parRange(n int, fn func(worker, lo, hi int)) {
	par.Range(n, fn)
}

// ---- graph ----

func addSelfLoops(a *csr) *csr                    { return graph.AddSelfLoops(a) }
func inducedSubgraph(a *csr, verts []int32) *csr  { return graph.InducedSubgraph(a, verts) }
func expand(a *csr, seed int32, hops int) []int32 { return serving.Expand(a, []int32{seed}, hops) }

// ---- gnn ----

// modelSpec is a model in the benchmark's own terms.
type modelSpec struct {
	kind            string // "AGNN" or "GAT"
	layers          int
	in, hidden, out int
	selfLoops       bool
	f32             bool // float32 plans over float64 master weights
	planInfer       bool // inference through compiled plans, not direct kernels
	seed            int64
}

func (s modelSpec) config() gnn.Config {
	kind, err := gnn.ParseKind(s.kind)
	if err != nil {
		panic(err)
	}
	cfg := gnn.Config{Model: kind, Layers: s.layers, InDim: s.in, HiddenDim: s.hidden,
		OutDim: s.out, SelfLoops: s.selfLoops, Seed: s.seed}
	if s.f32 {
		cfg.DType = tensor.F32
	}
	return cfg
}

func newModel(s modelSpec, a *csr) (*model, error) {
	m, err := gnn.New(s.config(), a)
	if err != nil {
		return nil, err
	}
	m.SetPlanInference(s.planInfer)
	return m, nil
}

func numLayers(m *model) int            { return len(m.Layers) }
func forward(m *model, h *dense) *dense { return m.Forward(h, false) }
func trainStep(m *model, h *dense, l lossFn, o optimizer) float64 {
	return m.TrainStep(h, l, o)
}
func zeroGrad(m *model) { m.ZeroGrad() }
func layerForward(m *model, i int, h *dense, training bool) *dense {
	return m.Layers[i].Forward(h, training)
}
func layerBackward(m *model, i int, g *dense) *dense   { return m.Layers[i].Backward(g) }
func lossEval(l lossFn, out *dense) (float64, *dense)  { return l.Eval(out) }
func optStep(o optimizer, m *model)                    { o.Step(m.Params()) }
func newCrossEntropy(labels []int) lossFn              { return &gnn.CrossEntropyLoss{Labels: labels} }
func newAdam(lr float64) optimizer                     { return gnn.NewAdam(lr) }
func rebindAdjacency(m *model, a *csr) (*model, error) { return gnn.RebindAdjacency(m, a) }
func plannedForward(m *model, h *dense) *dense         { return m.PlannedForward(h) }
func releasePlans(m *model)                            { m.ReleasePlans() }

// ---- fuse ----

func purgePlanCache() { fuse.Shared.Purge() }

// planCacheState reads the process-wide plan cache: cumulative hits and
// misses, idle bytes held and entries.
func planCacheState() (hits, misses, bytes int64, entries int) {
	return metrics.PlanCacheHits.Value(), metrics.PlanCacheMisses.Value(),
		fuse.Shared.Bytes(), fuse.Shared.Len()
}

// trainPlanStats sums Plan.Stats() over the training plans the layers hold
// after a training-mode forward.
func trainPlanStats(m *model) (ops, attnFused int, workspaceBytes int64) {
	for _, l := range m.Layers {
		pl, ok := l.(interface{ Plan() *fuse.Plan })
		if !ok || pl.Plan() == nil {
			continue
		}
		st := pl.Plan().Stats()
		ops += st.ForwardOps + st.BackwardOps
		attnFused += st.AttnFused
		workspaceBytes += st.WorkspaceBytes()
	}
	return
}

// ---- ckpt ----

func ckptSave(dir string, m *model) (string, error) {
	return ckpt.Save(dir, ckpt.State{Epoch: 1, Seed: 1}, m.Params())
}

func ckptLoad(path string, m *model) error {
	_, err := ckpt.Load(path, m.Params())
	return err
}

// ---- dist / dist/net ----

func allreduce(c *comm, x []float64) []float64       { return c.Allreduce(x) }
func bcast(c *comm, x []float64, root int) []float64 { return c.Bcast(x, root) }
func allgather(c *comm, x []float64) []float64       { return c.Allgather(x) }
func barrier(c *comm)                                { c.Barrier() }
func rankOf(c *comm) int                             { return c.Rank() }
func sendTo(c *comm, to int, x []float64)            { c.Send(to, x) }
func recvFrom(c *comm, from int) []float64           { return c.Recv(from) }

// rankWorld is what a p-rank run leaves behind.
type rankWorld struct {
	counters   []counters  // per rank
	wire       []wireStats // per rank; zero for the channel world
	bootstrapS float64     // slowest rank's time to a connected endpoint
}

// withEndpoints gives each of p goroutine ranks its own endpoint — a
// distnet.DialTCP socket mesh on 127.0.0.1 with the default TCPConfig when
// tcp is set, the in-process channel world otherwise — runs f on every
// rank, and closes the endpoints once all ranks have returned.
func withEndpoints(p int, tcp bool, f func(rank int, ep distnet.Endpoint) (counters, error)) (*rankWorld, error) {
	eps := make([]distnet.Endpoint, p)
	errs := make([]error, p)
	w := &rankWorld{counters: make([]counters, p), wire: make([]wireStats, p)}
	var wg sync.WaitGroup
	if tcp {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve rendezvous port: %w", err)
		}
		rdv := ln.Addr().String()
		ln.Close()
		t0 := time.Now()
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ep, err := distnet.DialTCP(distnet.TCPConfig{Rank: r, Size: p, Rendezvous: rdv})
				if err != nil {
					errs[r] = fmt.Errorf("rank %d: dial: %w", r, err)
					return
				}
				eps[r] = ep
			}(r)
		}
		wg.Wait()
		w.bootstrapS = time.Since(t0).Seconds()
	} else {
		cw, err := distnet.NewChanWorld(p)
		if err != nil {
			return nil, err
		}
		for r := range eps {
			eps[r] = cw.Endpoint(r)
		}
	}
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.counters[r], errs[r] = f(r, eps[r])
		}(r)
	}
	wg.Wait()
	for r, ep := range eps {
		if t, ok := ep.(*distnet.TCPEndpoint); ok {
			w.wire[r] = t.WireStats()
		}
	}
	return w, errors.Join(errs...)
}

// runRanks runs body as an SPMD program on p ranks.
func runRanks(p int, tcp bool, body func(c *comm) error) (*rankWorld, error) {
	return withEndpoints(p, tcp, func(rank int, ep distnet.Endpoint) (counters, error) {
		w, err := dist.NewNetWorld(ep, dist.Options{RecvTimeout: 60 * time.Second})
		if err != nil {
			return counters{}, err
		}
		return w.TryRunLocal(body)
	})
}

// ---- distgnn ----

// distJob is a distributed training job in the benchmark's own terms.
type distJob struct {
	p       int
	a       *csr
	x       *dense
	labels  []int
	model   modelSpec
	lr      float64
	epochs  int
	onEpoch func(epoch int, loss float64) // rank 0, after every epoch
}

// trainWorkers runs distgnn.TrainWorker on every rank and returns rank 0's
// per-epoch losses.
func trainWorkers(j distJob, tcp bool) ([]float64, *rankWorld, error) {
	var losses []float64
	w, err := withEndpoints(j.p, tcp, func(rank int, ep distnet.Endpoint) (counters, error) {
		spec := distgnn.TrainSpec{A: j.a, X: j.x, Labels: j.labels, Cfg: j.model.config(),
			Epochs: j.epochs, NewOpt: func() gnn.StatefulOptimizer { return gnn.NewAdam(j.lr) }}
		if rank == 0 {
			spec.OnEpoch = j.onEpoch
		}
		res, err := distgnn.TrainWorker(spec, ep)
		if err != nil {
			return counters{}, fmt.Errorf("rank %d: %w", rank, err)
		}
		if rank == 0 {
			losses = res.Losses
		}
		return res.Counters[0], nil
	})
	return losses, w, err
}

func newGridEngine(c *comm, j distJob) (*gridEngine, *dense, error) {
	e, err := distgnn.NewGlobalEngine(c, j.a, j.model.config())
	if err != nil {
		return nil, nil, err
	}
	return e, e.SliceOwnedBlock(j.x), nil
}

func gridZeroGrad(e *gridEngine)                  { e.ZeroGrad() }
func gridForward(e *gridEngine, xd *dense) *dense { return e.Forward(xd, true) }
func gridBackward(e *gridEngine, g *dense)        { e.Backward(g) }
func gridAllreduceGrads(e *gridEngine)            { e.AllreduceGrads() }
func gridOptStep(e *gridEngine, o optimizer)      { o.Step(e.Params()) }
func gridEvalLoss(e *gridEngine, out *dense, labels []int) (float64, *dense) {
	return e.EvalLoss(out, labels, nil)
}

// ---- serving ----

// newEngine starts a serving engine with the default Config over the
// model's processed adjacency.
func newEngine(m *model, feats *dense) (*engine, *csr, error) {
	adj, err := m.Adjacency()
	if err != nil {
		return nil, nil, err
	}
	e, err := serving.NewEngine(serving.Config{Model: m, Adj: adj, Features: feats})
	return e, adj, err
}

// predict asks the engine about one vertex and returns its class, logits
// and the engine's own stage times.
func predict(ctx context.Context, e *engine, vertex int) (int, []float64, stageTimes, error) {
	preds, tm, err := e.PredictTraced(ctx, []int{vertex}, "")
	if err != nil {
		return 0, nil, tm, err
	}
	return preds[0].Class, preds[0].Logits, tm, nil
}

func stopEngine(e *engine)               { e.Stop() }
func httpHandler(e *engine) http.Handler { return serving.Handler(e, serve.Options{}) }

// stageSeconds unpacks the engine's per-request stage times.
func stageSeconds(t stageTimes) (queue, batch, expand, plan float64, seeds int) {
	return float64(t.QueueNs) / 1e9, float64(t.BatchNs) / 1e9,
		float64(t.ExpandNs) / 1e9, float64(t.PlanNs) / 1e9, t.Seeds
}
