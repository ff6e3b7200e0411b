// Package serving is the online-inference side of the repo: it takes a
// trained model (typically restored from an internal/ckpt checkpoint), the
// processed adjacency it was built over, and the full feature matrix, and
// answers per-vertex classification queries over HTTP.
//
// The execution strategy is the paper's global tensor formulation applied
// to serving: a query for vertices S is a row block of the global product.
// The first layer's vertex-local prefix (GAT's H·W, u, v) is evaluated once
// per engine over every vertex (gnn.Prefix); a query's first layer runs on
// A[R, :] under global column ids, R the vertices within the model's radius
// less one hop of S, and reads those tables in place, gathering only the R
// rows of the ones it reads along its rows. Each later layer runs on the
// block of the ego whose rows the layers after it read (Engine.blocks), all
// in one compiled-plan forward. Every block row keeps its adjacency row's
// order, so an answer is the full graph's bit for bit, alone or in any
// batch. Each runner owns a view of the model whose layers compile their
// plans once and bind them to every query's blocks (fuse.Plan.Bind): no
// query compiles.
//
// Requests are micro-batched by queueing, not by a timer: a runner takes
// the first request and whatever is already queued behind it (up to
// MaxBatch seeds), unions their seed sets, and answers them with one
// subgraph execution. A lone request never waits for company; under load,
// the requests that arrive while one batch executes form the next.
// Admission control is a bounded queue — when it is full the engine sheds
// load with ErrOverloaded rather than queuing unboundedly (the HTTP layer
// maps this to 429).
package serving

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
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

// Config parameterizes an Engine. NewEngine reads the Model's parameters and
// the Features once, to evaluate the first layer's vertex-local prefix
// (gnn.Model.EvalPrefix): neither may change for the engine's life. There is
// no reload; a new model or new features take a new engine.
type Config struct {
	Model    *gnn.Model    // trained model (layers bound to Adj)
	Adj      *sparse.CSR   // processed adjacency (Model.Adjacency())
	Features *tensor.Dense // full n×k feature matrix

	// Hops is the neighborhood radius of a prediction subgraph. 0 means
	// the model's own radius (the gnn.Reach radii summed): the hops its
	// layers' aggregations reach, so an ego answer equals the full-graph one.
	Hops int
	// MaxBatch caps the number of distinct seed vertices answered by one
	// compiled execution (default 64).
	MaxBatch int
	// QueueDepth bounds the admission queue (default 4×MaxBatch requests).
	QueueDepth int
	// Runners is the number of batch-execution goroutines (default 1).
	// Each runner owns a view of the model — its own layer structs and
	// plans, bound to each batch's blocks — so runners share only the
	// parameter buffers (read-only during inference). A runner holds one
	// plan per layer, each as large as the largest query it has answered
	// needs.
	Runners int
}

// withDefaults fills the zero fields and reads, from the model's DAGs, what
// each layer reads of the adjacency (gnn.Model.Reach).
func (c Config) withDefaults() (Config, []gnn.Reach, error) {
	if c.Model == nil || c.Adj == nil || c.Features == nil {
		return c, nil, errors.New("serving: Config requires Model, Adj and Features")
	}
	if c.Features.Rows != c.Adj.Rows {
		return c, nil, fmt.Errorf("serving: %d feature rows for %d vertices", c.Features.Rows, c.Adj.Rows)
	}
	reach, err := c.Model.Reach(c.Features.Cols)
	if err != nil {
		return c, nil, fmt.Errorf("serving: %w", err)
	}
	if c.Hops <= 0 {
		for _, r := range reach {
			c.Hops += r.Radius
		}
		c.Hops = max(c.Hops, 1)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.Runners <= 0 {
		c.Runners = 1
	}
	return c, reach, nil
}

// Prediction is one vertex's answer.
type Prediction struct {
	Vertex int       `json:"vertex"`
	Class  int       `json:"class"`
	Logits []float64 `json:"logits"`
}

// Timing decomposes one request's latency along the serving pipeline:
// admission-queue wait, micro-batch hand-over, ego expansion, and
// compiled-plan execution up to the reply reaching the caller; the four add
// up to the time the request spent in the engine. PlanNs therefore also
// counts the reply assembly of the group's other requests and the goroutine
// hand-off back to the caller (a few µs), not only the plan. ExpandNs covers
// the vertices whose rows the first layer produces — never the ego's outer
// frontier, as that layer reads the prefix tables in place — every layer's
// block, and the rows of the prefix tables the first layer reads along its
// rows; it is shared by every request in the same micro-batch, the others
// are per request. A p99 outlier with a large QueueNs is an admission
// problem (requests queue behind the executing batch), and a large PlanNs
// points at the query structure itself. BatchNs is about 0: a batch closes
// as soon as the queue is drained, so only a request whose batch runs after
// another radius group's execution shows more.
type Timing struct {
	TraceID  string `json:"trace_id,omitempty"` // request trace ID (X-Agnn-Trace)
	QueueNs  int64  `json:"queue_ns"`           // submitted → picked up by a runner
	BatchNs  int64  `json:"batch_ns"`           // picked up → its group's execution starts
	ExpandNs int64  `json:"expand_ns"`          // seed union → blocks extracted + row-side prefix rows gathered
	PlanNs   int64  `json:"plan_ns"`            // rebind + planned forward + output copy → answer in the caller's hands
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
	plan   time.Time // when the plan stage began; zero if it never did
	err    error
}

// Engine executes micro-batched subgraph inference.
type Engine struct {
	cfg    Config
	reach  []gnn.Reach  // per DAG layer: its radius, and whether it runs on a block
	radius int          // the model's radius: the reach radii summed
	prefix *gnn.Prefix  // the first layer's vertex-local prefix over Features
	views  []*gnn.Model // a view of Model per runner, rebound per batch
	reqs   chan request

	mu      sync.Mutex
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewEngine validates the config, evaluates the first layer's vertex-local
// prefix over the features, and starts the runner goroutines.
func NewEngine(cfg Config) (*Engine, error) {
	e, err := newIdleEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newIdleEngine is NewEngine without the runners: requests queue until
// start.
func newIdleEngine(cfg Config) (*Engine, error) {
	cfg, reach, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	prefix, err := cfg.Model.EvalPrefix(cfg.Features)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	e := &Engine{cfg: cfg, reach: reach, prefix: prefix, reqs: make(chan request, cfg.QueueDepth), done: make(chan struct{})}
	for _, r := range reach {
		e.radius += r.Radius
	}
	for i := 0; i < cfg.Runners; i++ {
		view, err := gnn.RebindAdjacency(cfg.Model, cfg.Adj)
		if err != nil {
			return nil, fmt.Errorf("serving: %w", err)
		}
		e.views = append(e.views, view)
	}
	return e, nil
}

func (e *Engine) start() {
	e.wg.Add(e.cfg.Runners)
	for _, view := range e.views {
		go e.runner(view)
	}
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
	enq := time.Now()
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
		trace: trace, enq: enq}
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
		if !res.plan.IsZero() {
			res.timing.PlanNs = time.Since(res.plan).Nanoseconds()
		}
		observeStages(res.timing)
		return res.preds, res.timing, res.err
	case <-ctx.Done():
		return nil, tm, ctx.Err()
	case <-e.done:
		return nil, tm, ErrStopped
	}
}

// runner collects micro-batches and executes them on its view of the
// model, gathering prefix rows into buffers of its own. On exit it releases
// the view's plans.
func (e *Engine) runner(view *gnn.Model) {
	defer e.wg.Done()
	defer view.ReleasePlans()
	rows := newPrefixRows(e.prefix)
	for {
		select {
		case <-e.done:
			return
		case first := <-e.reqs:
			first.pick = time.Now()
			e.runBatch(e.collect(first), rows, view)
		}
	}
}

// collect joins to the first request the ones already queued behind it,
// until the queue is empty or the batch holds MaxBatch seed slots (counting
// duplicates conservatively). It never waits: what arrives while this batch
// executes forms the next one.
func (e *Engine) collect(first request) []request {
	batch := []request{first}
	seedCount := len(first.seeds)
	for seedCount < e.cfg.MaxBatch {
		select {
		case r := <-e.reqs:
			r.pick = time.Now()
			batch = append(batch, r)
			seedCount += len(r.seeds)
		default:
			return batch
		}
	}
	return batch
}

// runBatch groups the collected requests by radius (different radii need
// different subgraphs) and answers each group with one execution, the groups
// in the order their first requests arrived.
func (e *Engine) runBatch(batch []request, rows prefixRows, view *gnn.Model) {
	for len(batch) > 0 {
		hops, rest := batch[0].hops, []request(nil)
		group := batch[:0] // filtered in place: it never overtakes the read
		for _, r := range batch {
			if r.hops == hops {
				group = append(group, r)
			} else {
				rest = append(rest, r)
			}
		}
		e.runGroup(group, hops, rows, view)
		batch = rest
	}
}

// runGroup executes one micro-batch: drop the requests whose caller has gone
// (submit already returned ctx.Err() to it), union the seeds of the rest,
// expand to the ego whose rows the first layer produces, rebind every layer
// of the view to its block of the adjacency, gather those rows of the prefix
// tables the first layer reads along its rows, run the view's inference
// plans once from them and the tables, and slice each request's rows out of
// the shared output.
func (e *Engine) runGroup(group []request, hops int, rows prefixRows, view *gnn.Model) {
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
	// Union of seeds in first-seen order — the subgraph's leading rows. The
	// pooled marks hold each seed's row + 1 until the replies are built.
	var seeds []int32
	marks := graph.BorrowMarks(e.cfg.Adj.Rows)
	defer func() { marks.Release(seeds) }()
	for _, r := range group {
		for _, v := range r.seeds {
			if marks.At[v] == 0 {
				seeds = append(seeds, int32(v))
				marks.At[v] = int32(len(seeds))
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
		return tm
	}

	// A first layer on a block reads the prefix tables in place along its
	// columns, so a full-radius query expands only the vertices whose rows
	// it produces: the ego's outer frontier is never enumerated.
	levels, cut := hops, hops < e.radius
	if e.prefix.Block && !cut {
		levels = e.radius - 1
	}
	verts, bounds := ExpandBounds(e.cfg.Adj, seeds, levels)
	blocks := e.blocks(verts, bounds, cut)
	in := rows.gather(e.prefix, verts)
	expandDone := time.Now()

	// The runner's own view keeps runners independent; the parameter
	// buffers are the only shared state.
	if err := view.Rebind(blocks...); err != nil {
		for _, r := range group {
			r.reply <- result{timing: timing(r, Timing{ExpandNs: expandDone.Sub(start).Nanoseconds()}), err: err}
		}
		return
	}
	out := view.ForwardFrom(e.prefix, in)
	// The output matrix is a buffer of the view's step: copy the seed rows
	// before the next batch overwrites it.
	logits := make([][]float64, len(seeds))
	for i := range seeds {
		logits[i] = append([]float64(nil), out.Row(i)...)
	}
	shared := Timing{ExpandNs: expandDone.Sub(start).Nanoseconds()}

	for _, r := range group {
		preds := make([]Prediction, len(r.seeds))
		for j, v := range r.seeds {
			lg := logits[marks.At[v]-1]
			preds[j] = Prediction{Vertex: v, Class: argmax(lg), Logits: lg}
		}
		// submit ends the plan stage when the caller has the reply.
		r.reply <- result{preds: preds, timing: timing(r, shared), plan: expandDone}
	}
}

// observeStages records a request's stage times in the stage histograms.
func observeStages(tm Timing) {
	metrics.ServeStageSeconds.With("queue").Observe(float64(tm.QueueNs) / 1e9)
	metrics.ServeStageSeconds.With("batch").Observe(float64(tm.BatchNs) / 1e9)
	metrics.ServeStageSeconds.With("expand").Observe(float64(tm.ExpandNs) / 1e9)
	metrics.ServeStageSeconds.With("plan").Observe(float64(tm.PlanNs) / 1e9)
}

// blocks returns the message-flow block of every DAG layer for the ego verts
// whose frontiers end at bounds (ExpandBounds); cut says the ego stops short
// of the model's radius. A layer with k hops of the model after it must
// produce the rows within k hops of the seeds, bounds[k]; on a block layer
// (gnn.Reach.Block) those rows read the previous layer's output through
// A[rows, :c], where c is the rows the previous layer produced. Any other
// layer runs on the square block over its input rows, and the layers after
// it still shrink. A first block layer produces every row of verts and reads
// the prefix tables in place: its block is A[verts, :] under global column
// ids, cut to the ego's columns when the ego is. Every later block is under
// local ids over verts[:c]. A later square block is the subgraph induced by
// its input vertices: it drops its rows' edges into the next frontier, as
// the square ego does at its edge, and the rows the answer reads have none.
// Every row keeps the order of its adjacency row, so an answer sums each
// row's edges as the full graph does: at the model's radius its bits are
// the full-graph forward's, whatever batch it rides in.
func (e *Engine) blocks(verts []int32, bounds []int, cut bool) []*sparse.CSR {
	last := len(bounds) - 1
	after := e.radius // hops of the model after the current layer
	blocks := make([]*sparse.CSR, len(e.reach))
	c := len(verts) // rows the previous layer produced
	for l, r := range e.reach {
		after -= r.Radius
		rows := c
		if r.Block {
			rows = bounds[min(after, last)]
		}
		if l == 0 && r.Block {
			var within []int32
			if cut {
				within = verts
			}
			blocks[0] = graph.RowBlock(e.cfg.Adj, verts[:rows], within)
		} else {
			blocks[l] = graph.InducedRows(e.cfg.Adj, verts[:c], rows)
		}
		c = rows
	}
	return blocks
}

// prefixRows is a runner's copy of the prefix-table rows one query reads: row
// i of the j-th matrix is row verts[i] of the table Gathered[j]. Its storage
// grows only when a query is larger than any before it; the plans bind it,
// so it is read only while the runner's own execution runs.
type prefixRows []tensor.Typed

func newPrefixRows(pre *gnn.Prefix) prefixRows {
	rows := make(prefixRows, len(pre.Gathered))
	for j, t := range pre.Gathered {
		if tb := pre.Tables[t]; tb.F32 != nil {
			rows[j].F32 = &tensor.Mat[float32]{Cols: tb.F32.Cols}
		} else {
			rows[j].F64 = &tensor.Dense{Cols: tb.F64.Cols}
		}
	}
	return rows
}

func (r prefixRows) gather(pre *gnn.Prefix, verts []int32) []tensor.Typed {
	for j, t := range pre.Gathered {
		if tb := pre.Tables[t]; tb.F32 != nil {
			gatherRows(r[j].F32, tb.F32, verts)
		} else {
			gatherRows((*tensor.Mat[float64])(r[j].F64), (*tensor.Mat[float64])(tb.F64), verts)
		}
	}
	return r
}

func gatherRows[T tensor.Elem](dst, src *tensor.Mat[T], verts []int32) {
	k := src.Cols
	if n := len(verts) * k; cap(dst.Data) < n {
		dst.Data = make([]T, n)
	}
	dst.Rows, dst.Data = len(verts), dst.Data[:len(verts)*k]
	for i, v := range verts {
		copy(dst.Data[i*k:(i+1)*k], src.Data[int(v)*k:(int(v)+1)*k])
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
// BFS frontier sorted ascending. The order names the local ids of an ego's
// blocks and, by hop, which rows each layer produces; it does not decide
// arithmetic, as every block row keeps its adjacency row's order
// (graph.InducedRows, graph.RowBlock). It is ExpandBounds without the
// bounds.
func Expand(a *sparse.CSR, seeds []int32, hops int) []int32 {
	verts, _ := ExpandBounds(a, seeds, hops)
	return verts
}

// ExpandBounds is Expand that also reports where each frontier ends:
// bounds[h] is the number of vertices within h hops of the seeds — the
// seeds alone at 0 — and, because the order is by hop, those vertices are
// verts[:bounds[h]]. bounds ends at hops or where the frontiers run dry,
// whichever comes first: every h past its end has its last count.
//
// Visited vertices are marked in a pooled graph.Marks array, and each
// frontier is appended to the result as it is found, then sorted in place.
func ExpandBounds(a *sparse.CSR, seeds []int32, hops int) (verts []int32, bounds []int) {
	verts = append([]int32(nil), seeds...)
	bounds = []int{len(verts)}
	marks := graph.BorrowMarks(a.Rows)
	seen := marks.At
	for _, s := range seeds {
		seen[s] = 1
	}
	frontier := seeds
	for h := 0; h < hops; h++ {
		lo := len(verts)
		for _, v := range frontier {
			for _, c := range a.Col[a.RowPtr[v]:a.RowPtr[v+1]] {
				if seen[c] == 0 {
					seen[c] = 1
					verts = append(verts, c)
				}
			}
		}
		if len(verts) == lo {
			break
		}
		bounds = append(bounds, len(verts))
		// The frontier is read while the next one is appended: should verts
		// move, frontier keeps the old array, whose first len(verts) entries
		// stay as they were.
		frontier = verts[lo:]
		slices.Sort(frontier)
	}
	marks.Release(verts)
	return verts, bounds
}
