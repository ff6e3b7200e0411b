package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"agnn/internal/ckpt"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/obs/serve"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// trainTiny trains a small GAT on a synthetic citation graph and returns
// the model plus its dataset.
func trainTiny(t testing.TB) (*gnn.Model, *graph.Dataset, gnn.Config) {
	t.Helper()
	ds := graph.SyntheticCitation(80, 3, 8, 0.7, 41)
	cfg := gnn.Config{Model: gnn.GAT, Layers: 2, InDim: 8, HiddenDim: 6, OutDim: 3,
		Activation: gnn.ReLU(), SelfLoops: true, Seed: 41}
	m, err := gnn.New(cfg, ds.Adj)
	if err != nil {
		t.Fatal(err)
	}
	loss := &gnn.CrossEntropyLoss{Labels: ds.Labels, Mask: ds.TrainMask}
	opt := gnn.NewAdam(0.01)
	for e := 0; e < 5; e++ {
		m.TrainStep(ds.Features, loss, opt)
	}
	m.ReleasePlans()
	return m, ds, cfg
}

func newTestEngine(t testing.TB, m *gnn.Model, ds *graph.Dataset) *Engine {
	t.Helper()
	e := newIdleTestEngine(t, m, ds)
	e.start()
	return e
}

// newIdleTestEngine is newTestEngine with no runner started yet, so that
// requests can be queued before anything takes them.
func newIdleTestEngine(t testing.TB, m *gnn.Model, ds *graph.Dataset) *Engine {
	t.Helper()
	adj, err := m.Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newIdleEngine(Config{Model: m, Adj: adj, Features: ds.Features})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// waitQueued blocks until exactly n requests sit in e's admission queue.
func waitQueued(t *testing.T, e *Engine, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(e.reqs) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued after 10s", len(e.reqs), n)
		}
	}
}

// TestCheckpointRoundTripServing is the ISSUE 7 round-trip check: weights
// saved through the checksummed checkpoint format, restored into a fresh
// model in a "serve process", must answer queries with logits identical
// to the original in-process model's full-graph forward.
func TestCheckpointRoundTripServing(t *testing.T) {
	m, ds, cfg := trainTiny(t)
	dir := t.TempDir()
	if _, err := ckpt.Save(dir, ckpt.State{Epoch: 5, Seed: cfg.Seed}, m.Params()); err != nil {
		t.Fatal(err)
	}

	// The serve side rebuilds the model from the same config (fresh random
	// init) and restores the checkpointed weights over it.
	restored, err := gnn.New(cfg, ds.Adj)
	if err != nil {
		t.Fatal(err)
	}
	path, epoch, ok, err := ckpt.Latest(dir)
	if err != nil || !ok {
		t.Fatalf("Latest: %v ok=%v", err, ok)
	}
	if epoch != 5 {
		t.Fatalf("latest epoch %d", epoch)
	}
	if _, err := ckpt.Load(path, restored.Params()); err != nil {
		t.Fatal(err)
	}

	// Reference: the original model's full-graph inference. The output is
	// plan-owned, so keep a copy and hand the leases back.
	ref := m.Forward(ds.Features, false).Clone()
	m.ReleasePlans()

	e := newTestEngine(t, restored, ds)
	// Serve every vertex with the full graph as its neighborhood: hops
	// large enough that the ego subgraph is the whole (connected portion
	// of the) graph is not guaranteed, so query all vertices at once — the
	// union subgraph then contains every vertex reachable from any seed,
	// and seeds cover V, so the subgraph is the whole graph in the
	// original vertex order.
	all := make([]int, ds.Adj.Rows)
	for i := range all {
		all[i] = i
	}
	eAll, err := NewEngine(Config{Model: restored, Adj: mustAdj(t, restored),
		Features: ds.Features, MaxBatch: len(all)})
	if err != nil {
		t.Fatal(err)
	}
	defer eAll.Stop()
	preds, err := eAll.Predict(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		for j, v := range p.Logits {
			if v != ref.At(i, j) {
				t.Fatalf("vertex %d logit %d: served %v != in-process %v", i, j, v, ref.At(i, j))
			}
		}
	}

	// And ego queries agree with the batched answers for the same radius.
	p0, err := e.Ego(context.Background(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Vertex != 3 || len(p0.Logits) != 3 {
		t.Fatalf("ego answer %+v", p0)
	}
}

func mustAdj(t *testing.T, m *gnn.Model) *sparse.CSR {
	t.Helper()
	a, err := m.Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestServingDeterministicAndCached: once a fixed query mix has been swept,
// every repeat of the sweep is all plan-cache hits (one per layer per query,
// no recompilation) and bitwise-identical.
func TestServingDeterministicAndCached(t *testing.T) {
	m, ds, cfg := trainTiny(t)
	fuse.Shared.Purge() // the training plans trainTiny left idle
	e := newTestEngine(t, m, ds)
	rng := rand.New(rand.NewSource(43))
	mix := make([][]int, 16)
	for i := range mix {
		mix[i] = rng.Perm(ds.Adj.Rows)[:3]
	}
	sweep := func() [][]Prediction {
		out := make([][]Prediction, len(mix))
		for i, q := range mix {
			var err error
			if out[i], err = e.Predict(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	first := sweep()
	for rep := 0; rep < 2; rep++ {
		misses0 := metrics.PlanCacheMisses.Value()
		hits0 := metrics.PlanCacheHits.Value()
		again := sweep()
		if d := metrics.PlanCacheMisses.Value() - misses0; d != 0 {
			t.Fatalf("repeated sweep %d recompiled %d plans", rep, d)
		}
		if d, want := metrics.PlanCacheHits.Value()-hits0, int64(len(mix)*cfg.Layers); d != want {
			t.Fatalf("repeated sweep %d: plan hits = %d, want %d (one per layer per query)", rep, d, want)
		}
		for q := range first {
			for i := range first[q] {
				for j := range first[q][i].Logits {
					if first[q][i].Logits[j] != again[q][i].Logits[j] {
						t.Fatalf("non-deterministic serving: query %d, vertex %d, logit %d", q, i, j)
					}
				}
			}
		}
	}
	// Serving is inference: every plan it compiled is an inference plan.
	keys := fuse.Shared.Keys()
	if len(keys) == 0 {
		t.Fatal("the sweeps left no plan in the cache")
	}
	for _, k := range keys {
		if !strings.Contains(k.Sig, "train=false") {
			t.Errorf("serving compiled a plan under %q, want train=false only", k.Sig)
		}
	}
}

// TestServingDropsCancelledRequests: a request whose caller gave up while it
// sat in the queue (submit has already returned ctx.Err() to it) is dropped
// before the seed union — its vertices are never expanded and do not enlarge
// the execution of the live request batched with it — and a batch of
// nothing but cancelled requests executes nothing.
func TestServingDropsCancelledRequests(t *testing.T) {
	m, ds, _ := trainTiny(t)
	e := newIdleTestEngine(t, m, ds) // one runner, started below
	executions := metrics.ServeBatchVertices.Count()
	cancelled := func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.Predict(ctx, []int{1, 2, 3, 4, 5}); err != context.Canceled {
			t.Fatalf("cancelled Predict returned %v", err)
		}
	}
	live := func() error {
		preds, tm, err := e.PredictTraced(context.Background(), []int{70}, "")
		if err != nil || len(preds) != 1 || preds[0].Vertex != 70 {
			return fmt.Errorf("live request: %v %v", preds, err)
		}
		if tm.Seeds != 1 {
			return fmt.Errorf("the live request's execution had %d seeds, want its own 1 (the cancelled request's 5 dropped)", tm.Seeds)
		}
		return nil
	}

	// Both queued before the runner starts: one batch, the cancelled
	// request first.
	cancelled()
	errc := make(chan error, 1)
	go func() { errc <- live() }()
	waitQueued(t, e, 2)
	e.start()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := metrics.ServeBatchVertices.Count() - executions; got != 1 {
		t.Fatalf("%d executions for one batch", got)
	}

	// A cancelled request alone: the runner takes it off the queue and runs
	// nothing. The live request behind it is the second execution.
	cancelled()
	waitQueued(t, e, 0)
	if err := live(); err != nil {
		t.Fatal(err)
	}
	if got := metrics.ServeBatchVertices.Count() - executions; got != 2 {
		t.Fatalf("%d executions after 2 live requests", got)
	}
}

// TestServingBatchesWhatIsQueued: requests queued while the runner is busy
// are answered by one execution holding all their seeds, and each answer
// equals the one its vertex gets alone, to summation order.
func TestServingBatchesWhatIsQueued(t *testing.T) {
	m, ds, _ := trainTiny(t)
	e := newIdleTestEngine(t, m, ds)
	const k = 5
	type answer struct {
		p   []Prediction
		tm  Timing
		err error
	}
	answers := make([]chan answer, k)
	for i := range answers {
		answers[i] = make(chan answer, 1)
		go func(i int) {
			p, tm, err := e.PredictTraced(context.Background(), []int{10 * i}, "")
			answers[i] <- answer{p, tm, err}
		}(i)
	}
	waitQueued(t, e, k)
	executions := metrics.ServeBatchVertices.Count()
	e.start()
	for i, c := range answers {
		a := <-c
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.tm.Seeds != k {
			t.Fatalf("request %d ran in an execution of %d seeds, want all %d queued", i, a.tm.Seeds, k)
		}
		alone, err := e.Ego(context.Background(), 10*i, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range alone.Logits {
			if d := math.Abs(v - a.p[0].Logits[j]); d > 1e-9 {
				t.Fatalf("vertex %d logit %d: batched %v, alone %v", 10*i, j, a.p[0].Logits[j], v)
			}
		}
	}
	if got := metrics.ServeBatchVertices.Count() - executions; got != 1+k {
		t.Fatalf("%d executions, want 1 for the queued batch and %d lone ones", got, k)
	}
}

// TestCollectTakesOnlyWhatIsQueued: collect never waits for a request —
// with an empty queue it returns the first alone, in far less than a
// millisecond — and stops at MaxBatch seed slots, leaving the rest queued.
func TestCollectTakesOnlyWhatIsQueued(t *testing.T) {
	m, ds, _ := trainTiny(t)
	e := newIdleTestEngine(t, m, ds) // no runner: nothing else drains e.reqs
	collect := func(first request) ([]request, time.Duration) {
		t.Helper()
		got := make(chan []request, 1)
		t0 := time.Now()
		go func() { got <- e.collect(first) }()
		select {
		case b := <-got:
			return b, time.Since(t0)
		case <-time.After(10 * time.Second):
			t.Fatal("collect is still waiting after 10s")
		}
		return nil, 0
	}
	took := make([]time.Duration, 21)
	for i := range took {
		var b []request
		if b, took[i] = collect(request{seeds: []int{0}}); len(b) != 1 {
			t.Fatalf("collect on an empty queue returned %d requests", len(b))
		}
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med > 200*time.Microsecond {
		t.Fatalf("collect on an empty queue took %v (median of %d), want no wait", med, len(took))
	}
	wide := make([]int, e.cfg.MaxBatch/2)
	for i := 0; i < 3; i++ {
		e.reqs <- request{seeds: wide, reply: make(chan result, 1)}
	}
	if b, _ := collect(request{seeds: []int{0}}); len(b) != 3 {
		t.Fatalf("collect took %d requests, want 3 (1 + 2·MaxBatch/2 seed slots fill the batch)", len(b))
	}
	if len(e.reqs) != 1 {
		t.Fatalf("%d requests left queued, want 1", len(e.reqs))
	}
	<-e.reqs
}

// egoTestGraph is the tiny citation graph plus an isolated vertex (80) and a
// three-vertex path (81–82–83) whose frontiers run dry after two hops, with
// features for all 84 vertices.
func egoTestGraph(t *testing.T) (*sparse.CSR, *tensor.Dense) {
	t.Helper()
	ds := graph.SyntheticCitation(80, 3, 8, 0.7, 41)
	const n = 84
	coo := sparse.NewCOO(n, n, ds.Adj.NNZ()+4)
	for i := 0; i < ds.Adj.Rows; i++ {
		for q := ds.Adj.RowPtr[i]; q < ds.Adj.RowPtr[i+1]; q++ {
			coo.AppendVal(int32(i), ds.Adj.Col[q], ds.Adj.Val[q])
		}
	}
	for _, e := range [][2]int32{{81, 82}, {82, 81}, {82, 83}, {83, 82}} {
		coo.AppendVal(e[0], e[1], 1)
	}
	feats := tensor.RandN(n, ds.Features.Cols, 1, rand.New(rand.NewSource(42)))
	feats.SliceRows(0, ds.Adj.Rows).CopyFrom(ds.Features)
	return sparse.FromCOO(coo), feats
}

// squareEgo answers seeds the way the engine did before message-flow
// blocks: every layer over the whole induced ego.
func squareEgo(t *testing.T, m *gnn.Model, adj *sparse.CSR, feats *tensor.Dense, seeds []int32, hops int) *tensor.Dense {
	t.Helper()
	verts := Expand(adj, seeds, hops)
	bm, err := gnn.RebindAdjacency(m, graph.InducedSubgraph(adj, verts))
	if err != nil {
		t.Fatal(err)
	}
	f := tensor.NewDense(len(verts), feats.Cols)
	for i, v := range verts {
		copy(f.Row(i), feats.Row(int(v)))
	}
	out := bm.Forward(f, false).SliceRows(0, len(seeds)).Clone()
	bm.ReleasePlans()
	return out
}

// TestEgoRadiusCoversMultiHopLayers: an ego query runs each layer on its own
// message-flow block, and its answer must be the square ego's bit for bit
// and the full graph's row to 1e-12 (relative: VA's logits grow large) —
// over every built-in layer kind, multi-hop and mixed stacks, dropout and
// float32 (to f32 precision against the full graph), single egos and
// multi-seed batches, an isolated vertex, and hops past the ego's depth
// where the frontier bounds saturate. The radius-1 layers must run on
// blocks (GIN included); the SGC layer and a ⊕ that needs a square pattern
// run on the square fallback. Below the
// model's radius an ego is truncated: the answer must still be the square
// ego's.
func TestEgoRadiusCoversMultiHopLayers(t *testing.T) {
	adj, feats := egoTestGraph(t)
	build := func(cfg gnn.Config) func() *gnn.Model {
		return func() *gnn.Model {
			cfg.InDim, cfg.HiddenDim, cfg.OutDim, cfg.SelfLoops, cfg.Seed = feats.Cols, 6, 3, true, 43
			m, err := gnn.New(cfg, adj)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	loops := graph.AddSelfLoops(adj)
	rng := rand.New(rand.NewSource(44))
	cases := []struct {
		name   string
		model  func() *gnn.Model
		radius int    // default hops: the layers' aggregations summed
		blocks []bool // Reach.Block per DAG layer
	}{
		{"gat-2-layers", build(gnn.Config{Model: gnn.GAT, Layers: 2}), 2, []bool{true, true}},
		{"agnn", build(gnn.Config{Model: gnn.AGNN, Layers: 2}), 2, []bool{true, true}},
		{"va", build(gnn.Config{Model: gnn.VA, Layers: 2}), 2, []bool{true, true}},
		{"gcn-3-layers", build(gnn.Config{Model: gnn.GCN, Layers: 3}), 3, []bool{true, true, true}},
		{"gin", func() *gnn.Model {
			return &gnn.Model{Layers: []gnn.Layer{
				gnn.NewGINLayer(loops, feats.Cols, 5, 6, gnn.ReLU(), rng),
				gnn.NewGINLayer(loops, 6, 5, 3, gnn.Identity(), rng)}}
		}, 2, []bool{true, true}},
		{"gat-2-heads", build(gnn.Config{Model: gnn.GAT, Layers: 2, Heads: 2}), 2, []bool{true, true}},
		{"gat-dropout", func() *gnn.Model {
			m := build(gnn.Config{Model: gnn.GAT, Layers: 2})()
			m.Layers = []gnn.Layer{m.Layers[0], gnn.NewDropout(0.5, 45), m.Layers[1]}
			return m
		}, 2, []bool{true, true}},
		{"sgc-k2", func() *gnn.Model {
			return &gnn.Model{Layers: []gnn.Layer{gnn.NewSGCLayer(loops, 2, feats.Cols, 3, gnn.Identity(), rng)}}
		}, 2, []bool{false}},
		{"sgc-k2-then-gat", func() *gnn.Model {
			return &gnn.Model{Layers: []gnn.Layer{
				gnn.NewSGCLayer(loops, 2, feats.Cols, 6, gnn.ReLU(), rng),
				gnn.NewGATLayer(loops, 6, 3, gnn.Identity(), 0.2, rng)}}
		}, 3, []bool{false, true}},
		// The square block after a shrunk layer cuts its rows' edges into
		// the next frontier; the rows the answer reads keep theirs.
		{"gat-then-sgc-k2", func() *gnn.Model {
			return &gnn.Model{Layers: []gnn.Layer{
				gnn.NewGATLayer(loops, feats.Cols, 6, gnn.ReLU(), 0.2, rng),
				gnn.NewSGCLayer(loops, 2, 6, 3, gnn.Identity(), rng)}}
		}, 3, []bool{true, false}},
		{"gat-f32", build(gnn.Config{Model: gnn.GAT, Layers: 2, DType: tensor.F32}), 2, []bool{true, true}},
		// A ⊕ that joins each aggregate row to the vertex's own input row
		// needs a square pattern; the GAT layer after it still shrinks.
		{"concat-agg-then-gat", func() *gnn.Model {
			concat := gnn.CustomAgg("concat", func(g *fuse.Graph, psi, x *fuse.Node) *fuse.Node {
				return g.ConcatCols("Z", g.SpMM("AX", psi, x), x)
			})
			return &gnn.Model{Layers: []gnn.Layer{
				gnn.NewGenericLayer(loops, gnn.GenericLayer{Agg: concat, Act: gnn.ReLU(),
					Phi: gnn.LinearPhi(tensor.GlorotInit(2*feats.Cols, 6, rng))}),
				gnn.NewGATLayer(loops, 6, 3, gnn.Identity(), 0.2, rng)}}
		}, 2, []bool{false, true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.model()
			full := m.Forward(feats, false).Clone()
			m.ReleasePlans()
			radius := c.radius
			e, err := NewEngine(Config{Model: m, Adj: mustAdj(t, m), Features: feats})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop()
			if e.Hops() != radius {
				t.Fatalf("default radius %d, want %d", e.Hops(), radius)
			}
			var blocks []bool
			for _, r := range e.reach {
				blocks = append(blocks, r.Block)
			}
			if !slices.Equal(blocks, c.blocks) {
				t.Fatalf("layers on blocks %v, want %v", blocks, c.blocks)
			}
			// A float32 plan over the ego and one over the full graph round
			// differently, so the f32 model meets the full graph to f32's
			// precision only; its square ego it still meets bit for bit.
			tol := 1e-12
			if m.DType == tensor.F32 {
				tol = 1e-6
			}
			check := func(seeds []int, hops int, preds []Prediction) {
				t.Helper()
				ids := make([]int32, 0, len(seeds))
				for _, v := range seeds {
					if !slices.Contains(ids, int32(v)) {
						ids = append(ids, int32(v))
					}
				}
				sq := squareEgo(t, m, e.cfg.Adj, feats, ids, hops)
				for j, p := range preds {
					want := sq.Row(slices.Index(ids, int32(seeds[j])))
					for k, x := range p.Logits {
						if math.Float64bits(x) != math.Float64bits(want[k]) {
							t.Fatalf("seeds %v hops %d: vertex %d logit %d = %v, square ego %v", seeds, hops, p.Vertex, k, x, want[k])
						}
						if f := full.At(p.Vertex, k); hops >= radius && math.Abs(x-f) > tol*max(1, math.Abs(f)) {
							t.Fatalf("seeds %v hops %d: vertex %d logit %d = %v, full graph %v", seeds, hops, p.Vertex, k, x, f)
						}
					}
				}
			}
			for v := 0; v < adj.Rows; v++ {
				p, err := e.Ego(context.Background(), v, 0)
				if err != nil {
					t.Fatal(err)
				}
				check([]int{v}, radius, []Prediction{p})
			}
			for _, q := range []struct {
				seeds []int
				hops  int
			}{
				{[]int{0, 5, 17}, radius},
				{[]int{80, 3, 81}, radius},
				{[]int{83, 40, 83, 12, 40}, radius},
				{[]int{81}, radius + 3},
				{[]int{80}, radius + 3},
				{[]int{2, 82, 70}, radius + 3},
				{[]int{9}, 1},
				{[]int{9, 81, 30}, 1},
			} {
				ctx := context.Background()
				if q.hops == radius {
					preds, err := e.Predict(ctx, q.seeds)
					if err != nil {
						t.Fatal(err)
					}
					check(q.seeds, q.hops, preds)
					continue
				}
				var preds []Prediction
				for _, v := range q.seeds {
					p, err := e.Ego(ctx, v, q.hops)
					if err != nil {
						t.Fatal(err)
					}
					preds = append(preds, p)
				}
				for j, v := range q.seeds {
					check([]int{v}, q.hops, preds[j:j+1])
				}
			}
		})
	}
}

// TestServingConcurrentHammer drives the engine from many goroutines
// (run under -race in CI): every request must complete or shed cleanly,
// results must match the single-threaded reference (to fp rounding —
// micro-batch composition legitimately reorders summations), and
// afterwards the plan cache must hold no leaked leases.
func TestServingConcurrentHammer(t *testing.T) {
	m, ds, _ := trainTiny(t)
	adj, err := m.Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Model: m, Adj: adj, Features: ds.Features,
		Runners: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}

	// Reference answers computed single-threaded first.
	want := make(map[int][]float64)
	for v := 0; v < 16; v++ {
		p, err := e.Ego(context.Background(), v, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = p.Logits
	}

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	var shed, served int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				v := rng.Intn(16)
				p, err := e.Ego(context.Background(), v, 0)
				if err != nil {
					if err == ErrOverloaded {
						mu.Lock()
						shed++
						mu.Unlock()
						continue
					}
					errs <- err
					return
				}
				mu.Lock()
				served++
				mu.Unlock()
				for j, lv := range p.Logits {
					if diff := math.Abs(lv - want[v][j]); diff > 1e-9 {
						errs <- errMismatch{v, j}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if served == 0 {
		t.Fatal("every request was shed")
	}
	e.Stop()
	if n := fuse.Shared.Leased(); n != 0 {
		t.Fatalf("%d plan leases leaked after engine stop", n)
	}
	t.Logf("served=%d shed=%d", served, shed)
}

type errMismatch [2]int

func (e errMismatch) Error() string {
	return "non-deterministic logits under concurrency"
}

// TestServingAdmissionControl: with a queue of depth 1 and a stalled
// runner-less engine... we can't stall runners directly, so saturate with
// a tiny queue and many synchronous senders; at least the error path must
// be exercised and report ErrOverloaded (HTTP 429).
func TestServingHTTP(t *testing.T) {
	m, ds, _ := trainTiny(t)
	e := newTestEngine(t, m, ds)
	h := Handler(e, serve.Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	do := func(path, body string) (int, string) {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := do("/v1/predict", `{"vertices":[0,2,4]}`)
	if code != 200 {
		t.Fatalf("predict status %d: %s", code, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 3 || len(pr.Predictions[0].Logits) == 0 {
		t.Fatalf("predict payload %+v", pr)
	}

	code, body = do("/v1/ego", `{"vertex":5,"hops":1}`)
	if code != 200 {
		t.Fatalf("ego status %d: %s", code, body)
	}
	var er EgoResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	if er.Vertex != 5 || er.Hops != 1 {
		t.Fatalf("ego payload %+v", er)
	}

	if code, _ := do("/v1/predict", `{"vertices":[99999]}`); code != 400 {
		t.Fatalf("out-of-range vertex status %d, want 400", code)
	}
	if code, _ := do("/v1/predict", `not json`); code != 400 {
		t.Fatalf("bad body status %d, want 400", code)
	}

	// Diagnostics fall through to the obs/serve mux.
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, rerr := resp.Body.Read(buf)
		mb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	for _, want := range []string{"agnn_serve_request_seconds", "agnn_serve_requests_total", "agnn_plancache_hits"} {
		if !strings.Contains(mb.String(), want) {
			t.Fatalf("metrics exposition missing %s", want)
		}
	}
}

// FuzzHandler drives POST /v1/predict and /v1/ego with arbitrary bodies and
// X-Agnn-Trace headers. No input panics or earns a 5xx, the trace header is
// echoed, a body that does not decode is a 400, and one that decodes answers
// what the direct Engine call does, bit for bit (requests arrive one at a
// time, so each runs alone in its micro-batch).
func FuzzHandler(f *testing.F) {
	m, ds, _ := trainTiny(f)
	e := newTestEngine(f, m, ds)
	h := Handler(e, serve.Options{})
	f.Add(false, []byte(`{"vertices":[0,2,4]}`), "")
	f.Add(false, []byte(`{"vertices":[3,3,79]} trailing`), "client-7")
	f.Add(false, []byte(`{"vertices":[]}`), "")
	f.Add(false, []byte(`{"vertices":[99999]}`), "")
	f.Add(false, []byte(`{"vertices":[1e400]}`), "")
	f.Add(false, []byte(`null`), "\x00\n\xff")
	f.Add(false, []byte(`not json`), "")
	f.Add(true, []byte(`{"vertex":5,"hops":1}`), "ego-1")
	f.Add(true, []byte(`{"vertex":3,"hops":-4}`), "")
	f.Add(true, []byte(`{"vertex":3,"hops":9000000000000000000}`), "")
	f.Add(true, []byte(`{"vertex":-1}`), "")
	f.Fuzz(func(t *testing.T, ego bool, body []byte, trace string) {
		path := "/v1/predict"
		if ego {
			path = "/v1/ego"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if trace != "" {
			req.Header.Set(TraceHeader, trace)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		if trace != "" && rec.Header().Get(TraceHeader) != trace {
			t.Fatalf("%s: trace header %q came back as %q", path, trace, rec.Header().Get(TraceHeader))
		}
		if len(body) > maxBodyBytes {
			return
		}

		// The direct call on the same decoded request.
		var want []Prediction
		var err error
		if ego {
			var r EgoRequest
			if err = json.NewDecoder(bytes.NewReader(body)).Decode(&r); err == nil {
				var p Prediction
				if p, err = e.Ego(context.Background(), r.Vertex, r.Hops); err == nil {
					want = []Prediction{p}
				}
			}
		} else {
			var r PredictRequest
			if err = json.NewDecoder(bytes.NewReader(body)).Decode(&r); err == nil {
				want, err = e.Predict(context.Background(), r.Vertices)
			}
		}
		if err != nil { // undecodable, or refused by the engine
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %q: the direct call failed (%v), the handler answered %d", path, body, err, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %q: the direct call answered, the handler %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		var got []Prediction
		if ego {
			var r EgoResponse
			err = json.Unmarshal(rec.Body.Bytes(), &r)
			got = []Prediction{r.Prediction}
		} else {
			var r PredictResponse
			err = json.Unmarshal(rec.Body.Bytes(), &r)
			got = r.Predictions
		}
		if err != nil {
			t.Fatalf("%s: undecodable reply %q: %v", path, rec.Body.Bytes(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %q: %d predictions, the direct call %d", path, body, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Vertex != w.Vertex || g.Class != w.Class || len(g.Logits) != len(w.Logits) {
				t.Fatalf("%s %q: prediction %d is %+v, the direct call's %+v", path, body, i, g, w)
			}
			for j, v := range w.Logits {
				if math.Float64bits(g.Logits[j]) != math.Float64bits(v) {
					t.Fatalf("%s %q: vertex %d logit %d is %v, the direct call's %v", path, body, w.Vertex, j, g.Logits[j], v)
				}
			}
		}
	})
}
