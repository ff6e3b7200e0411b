// Package serving is the online-inference side of the repo: it takes a
// trained model (typically restored from an internal/ckpt checkpoint), the
// processed adjacency it was built over, and the full feature matrix, and
// answers per-vertex classification queries over HTTP.
//
// The execution strategy is the paper's global tensor formulation applied
// to serving: a query for vertices S is answered by extracting the induced
// subgraph of S's h-hop neighborhood, rebinding the model to it, and
// running one compiled-plan forward over the whole subgraph. Because plans
// resolve through the process-wide cache (internal/fuse), a repeated query
// structure — the common case under load, and always the case for repeated
// identical queries — executes with zero recompilation.
//
// Requests are micro-batched: a runner collects queries for up to Window
// (or MaxBatch seeds), unions their seed sets, and answers them with one
// subgraph execution. Admission control is a bounded queue — when it is
// full the engine sheds load with ErrOverloaded rather than queuing
// unboundedly (the HTTP layer maps this to 429).
package serving

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// ErrOverloaded is returned when the admission queue is full. HTTP callers
// receive 429 Too Many Requests.
var ErrOverloaded = errors.New("serving: admission queue full")

// ErrStopped is returned for requests caught in a stopping engine.
var ErrStopped = errors.New("serving: engine stopped")

// ErrBadRequest wraps client-side errors (empty or out-of-range vertex
// lists). HTTP callers receive 400 Bad Request.
var ErrBadRequest = errors.New("serving: bad request")

// Config parameterizes an Engine.
type Config struct {
	Model    *gnn.Model    // trained model (layers bound to Adj)
	Adj      *sparse.CSR   // processed adjacency (Model.Adjacency())
	Features *tensor.Dense // full n×k feature matrix

	// Hops is the neighborhood radius of a prediction subgraph. 0 means
	// the model depth (every layer aggregates one hop).
	Hops int
	// MaxBatch caps the number of distinct seed vertices answered by one
	// compiled execution (default 64).
	MaxBatch int
	// Window is how long a runner waits to fill a micro-batch after the
	// first request arrives (default 2ms).
	Window time.Duration
	// QueueDepth bounds the admission queue (default 4×MaxBatch requests).
	QueueDepth int
	// Runners is the number of batch-execution goroutines (default 1).
	// Each runner rebinds its own layer structs per batch, so runners
	// share only the parameter buffers (read-only during inference) and
	// the plan cache (concurrency-safe).
	Runners int
}

func (c Config) withDefaults() (Config, error) {
	if c.Model == nil || c.Adj == nil || c.Features == nil {
		return c, errors.New("serving: Config requires Model, Adj and Features")
	}
	if c.Features.Rows != c.Adj.Rows {
		return c, fmt.Errorf("serving: %d feature rows for %d vertices", c.Features.Rows, c.Adj.Rows)
	}
	if c.Hops <= 0 {
		c.Hops = 0
		for _, l := range c.Model.Layers {
			if _, ok := l.(*gnn.DropoutLayer); !ok {
				c.Hops++
			}
		}
		if c.Hops == 0 {
			c.Hops = 1
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.Runners <= 0 {
		c.Runners = 1
	}
	return c, nil
}

// Prediction is one vertex's answer.
type Prediction struct {
	Vertex int       `json:"vertex"`
	Class  int       `json:"class"`
	Logits []float64 `json:"logits"`
}

// Timing decomposes one request's latency along the serving pipeline:
// admission-queue wait, micro-batch collection wait, ego expansion, and
// compiled-plan execution. ExpandNs/PlanNs are shared by every request in
// the same micro-batch; QueueNs/BatchNs are per request. A p99 outlier
// with a large QueueNs is an admission problem, a large BatchNs points at
// the Window, and a large PlanNs at the query structure itself.
type Timing struct {
	TraceID  string `json:"trace_id,omitempty"` // request trace ID (X-Agnn-Trace)
	QueueNs  int64  `json:"queue_ns"`           // enqueue → picked up by a runner
	BatchNs  int64  `json:"batch_ns"`           // picked up → micro-batch closed
	ExpandNs int64  `json:"expand_ns"`          // seed union → induced subgraph + features
	PlanNs   int64  `json:"plan_ns"`            // rebind + planned forward + output copy
	Seeds    int    `json:"batch_seeds"`        // distinct seeds in the shared execution
}

// tracePrefix makes trace IDs unique across processes; the counter makes
// them unique within one.
var tracePrefix = func() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var traceCounter atomic.Uint64

// NewTraceID returns a process-unique request trace ID
// ("<8 hex chars>-<counter>").
func NewTraceID() string {
	return fmt.Sprintf("%s-%d", tracePrefix, traceCounter.Add(1))
}

// request is one enqueued query: answer these seeds at this radius.
type request struct {
	ctx   context.Context // the caller's: done means nobody reads the reply
	seeds []int
	hops  int
	reply chan result

	trace string    // request trace ID (propagated into the reply's Timing)
	enq   time.Time // admission time
	pick  time.Time // when a runner dequeued it
}

type result struct {
	preds  []Prediction
	timing Timing
	err    error
}

// Engine executes micro-batched subgraph inference.
type Engine struct {
	cfg  Config
	reqs chan request

	mu      sync.Mutex
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewEngine validates the config and starts the runner goroutines.
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, reqs: make(chan request, cfg.QueueDepth), done: make(chan struct{})}
	e.wg.Add(cfg.Runners)
	for i := 0; i < cfg.Runners; i++ {
		go e.runner()
	}
	return e, nil
}

// Stop drains the engine: no new requests are admitted, queued requests
// are answered with ErrStopped, and the runners exit.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	close(e.done)
	e.mu.Unlock()
	e.wg.Wait()
	// Fail anything that was admitted but never picked up.
	for {
		select {
		case r := <-e.reqs:
			r.reply <- result{err: ErrStopped}
		default:
			return
		}
	}
}

// N returns the number of vertices served.
func (e *Engine) N() int { return e.cfg.Adj.Rows }

// Hops returns the default neighborhood radius.
func (e *Engine) Hops() int { return e.cfg.Hops }

// Predict answers a batch of per-vertex queries at the default radius.
// Queries may be coalesced with concurrent ones into a single compiled
// subgraph execution. Results align with vertices.
func (e *Engine) Predict(ctx context.Context, vertices []int) ([]Prediction, error) {
	preds, _, err := e.PredictTraced(ctx, vertices, "")
	return preds, err
}

// PredictTraced is Predict with an explicit trace ID ("" allocates one)
// and the request's pipeline timing decomposition.
func (e *Engine) PredictTraced(ctx context.Context, vertices []int, trace string) ([]Prediction, Timing, error) {
	return e.submit(ctx, vertices, e.cfg.Hops, trace)
}

// Ego answers one vertex at an explicit radius (hops ≤ 0 uses the
// default). It rides the same batching path; only queries with the same
// radius share an execution.
func (e *Engine) Ego(ctx context.Context, vertex, hops int) (Prediction, error) {
	p, _, err := e.EgoTraced(ctx, vertex, hops, "")
	return p, err
}

// EgoTraced is Ego with an explicit trace ID and timing decomposition.
func (e *Engine) EgoTraced(ctx context.Context, vertex, hops int, trace string) (Prediction, Timing, error) {
	if hops <= 0 {
		hops = e.cfg.Hops
	}
	preds, tm, err := e.submit(ctx, []int{vertex}, hops, trace)
	if err != nil {
		return Prediction{}, tm, err
	}
	return preds[0], tm, nil
}

func (e *Engine) submit(ctx context.Context, vertices []int, hops int, trace string) ([]Prediction, Timing, error) {
	if trace == "" {
		trace = NewTraceID()
	}
	tm := Timing{TraceID: trace}
	if len(vertices) == 0 {
		return nil, tm, fmt.Errorf("%w: empty vertex list", ErrBadRequest)
	}
	n := e.cfg.Adj.Rows
	for _, v := range vertices {
		if v < 0 || v >= n {
			return nil, tm, fmt.Errorf("%w: vertex %d outside [0,%d)", ErrBadRequest, v, n)
		}
	}
	r := request{ctx: ctx, seeds: vertices, hops: hops, reply: make(chan result, 1),
		trace: trace, enq: time.Now()}
	select {
	case <-e.done:
		return nil, tm, ErrStopped
	default:
	}
	select {
	case e.reqs <- r:
	default:
		metrics.ServeRejectedTotal.Inc()
		return nil, tm, ErrOverloaded
	}
	select {
	case res := <-r.reply:
		if res.timing.TraceID == "" {
			res.timing.TraceID = trace
		}
		return res.preds, res.timing, res.err
	case <-ctx.Done():
		return nil, tm, ctx.Err()
	case <-e.done:
		return nil, tm, ErrStopped
	}
}

// runner collects micro-batches and executes them.
func (e *Engine) runner() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case first := <-e.reqs:
			first.pick = time.Now()
			e.runBatch(e.collect(first))
		}
	}
}

// collect gathers requests after the first until the window closes or the
// batch holds MaxBatch seed slots (counting duplicates conservatively).
func (e *Engine) collect(first request) []request {
	batch := []request{first}
	seedCount := len(first.seeds)
	timer := time.NewTimer(e.cfg.Window)
	defer timer.Stop()
	for seedCount < e.cfg.MaxBatch {
		select {
		case r := <-e.reqs:
			r.pick = time.Now()
			batch = append(batch, r)
			seedCount += len(r.seeds)
		case <-timer.C:
			return batch
		case <-e.done:
			return batch
		}
	}
	return batch
}

// runBatch groups the collected requests by radius (different radii need
// different subgraphs) and answers each group with one execution.
func (e *Engine) runBatch(batch []request) {
	byHops := make(map[int][]request)
	for _, r := range batch {
		byHops[r.hops] = append(byHops[r.hops], r)
	}
	for hops, group := range byHops {
		e.runGroup(group, hops)
	}
}

// runGroup executes one micro-batch: drop the requests whose caller has gone
// (submit already returned ctx.Err() to it), union the seeds of the rest,
// expand to the h-hop induced subgraph, rebind, run the compiled inference
// plans once, and slice each request's rows out of the shared output.
func (e *Engine) runGroup(group []request, hops int) {
	start := time.Now()
	live := group[:0]
	for _, r := range group {
		if r.ctx.Err() == nil {
			live = append(live, r)
		}
	}
	if group = live; len(group) == 0 {
		return
	}
	// Union of seeds in first-seen order — the subgraph's leading rows.
	var seeds []int32
	index := make(map[int32]int)
	for _, r := range group {
		for _, v := range r.seeds {
			if _, ok := index[int32(v)]; !ok {
				index[int32(v)] = len(seeds)
				seeds = append(seeds, int32(v))
			}
		}
	}
	metrics.ServeBatchVertices.Observe(float64(len(seeds)))

	timing := func(r request, tm Timing) Timing {
		tm.TraceID = r.trace
		tm.Seeds = len(seeds)
		if !r.enq.IsZero() && !r.pick.IsZero() {
			tm.QueueNs = r.pick.Sub(r.enq).Nanoseconds()
			tm.BatchNs = start.Sub(r.pick).Nanoseconds()
		}
		metrics.ServeStageSeconds.With("queue").Observe(float64(tm.QueueNs) / 1e9)
		metrics.ServeStageSeconds.With("batch").Observe(float64(tm.BatchNs) / 1e9)
		metrics.ServeStageSeconds.With("expand").Observe(float64(tm.ExpandNs) / 1e9)
		metrics.ServeStageSeconds.With("plan").Observe(float64(tm.PlanNs) / 1e9)
		return tm
	}

	verts := Expand(e.cfg.Adj, seeds, hops)
	sub := graph.InducedSubgraph(e.cfg.Adj, verts)
	feats := tensor.NewDense(len(verts), e.cfg.Features.Cols)
	for i, v := range verts {
		copy(feats.Row(i), e.cfg.Features.Row(int(v)))
	}
	expandDone := time.Now()

	// Fresh layer structs per execution keep runners independent; the
	// parameter buffers and the plan cache are the only shared state.
	bm, err := gnn.RebindAdjacency(e.cfg.Model, sub)
	if err != nil {
		for _, r := range group {
			r.reply <- result{timing: timing(r, Timing{ExpandNs: expandDone.Sub(start).Nanoseconds()}), err: err}
		}
		return
	}
	out := bm.Forward(feats, false)
	// The output matrix is plan-owned: copy the seed rows before the
	// leases go back to the cache.
	logits := make([][]float64, len(seeds))
	for i := range seeds {
		logits[i] = append([]float64(nil), out.Row(i)...)
	}
	bm.ReleasePlans()
	shared := Timing{
		ExpandNs: expandDone.Sub(start).Nanoseconds(),
		PlanNs:   time.Since(expandDone).Nanoseconds(),
	}

	for _, r := range group {
		preds := make([]Prediction, len(r.seeds))
		for j, v := range r.seeds {
			lg := logits[index[int32(v)]]
			preds[j] = Prediction{Vertex: v, Class: argmax(lg), Logits: lg}
		}
		r.reply <- result{preds: preds, timing: timing(r, shared)}
	}
}

func argmax(x []float64) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Expand returns the vertices of the h-hop out-neighborhood of the seeds
// in deterministic order: the seeds first (in the given order), then each
// BFS frontier sorted ascending. The order is what makes two executions of
// the same query bitwise-identical — the induced subgraph, and therefore
// the compiled plan's arithmetic, depends on it.
func Expand(a *sparse.CSR, seeds []int32, hops int) []int32 {
	verts := append([]int32(nil), seeds...)
	seen := make(map[int32]bool, len(seeds))
	for _, s := range seeds {
		seen[s] = true
	}
	frontier := seeds
	for h := 0; h < hops; h++ {
		var next []int32
		for _, v := range frontier {
			for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
				c := a.Col[p]
				if !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		verts = append(verts, next...)
		frontier = next
	}
	return verts
}
