package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

func newTestEngine(t testing.TB, m *gnn.Model, ds *graph.Dataset, window time.Duration) *Engine {
	t.Helper()
	adj, err := m.Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Model: m, Adj: adj, Features: ds.Features, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
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

	e := newTestEngine(t, restored, ds, time.Millisecond)
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
	e := newTestEngine(t, m, ds, time.Millisecond)
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
// sat in the queue or in an open batch (submit has already returned
// ctx.Err() to it) is dropped before the seed union — its vertices are never
// expanded and do not enlarge the execution the live request behind it pays
// for — and a batch of nothing but cancelled requests executes nothing.
func TestServingDropsCancelledRequests(t *testing.T) {
	m, ds, _ := trainTiny(t)
	e := newTestEngine(t, m, ds, 50*time.Millisecond) // one runner; the window holds a batch open
	executions := metrics.ServeBatchVertices.Count()
	for round := int64(1); round <= 2; round++ {
		// The cancelled request is admitted first; whether the live one
		// joins its batch or opens the next, it must run alone.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.Predict(ctx, []int{1, 2, 3, 4, 5}); err != context.Canceled {
			t.Fatalf("cancelled Predict returned %v", err)
		}
		preds, tm, err := e.PredictTraced(context.Background(), []int{70}, "")
		if err != nil || len(preds) != 1 || preds[0].Vertex != 70 {
			t.Fatalf("live request: %v %v", preds, err)
		}
		if tm.Seeds != 1 {
			t.Fatalf("the live request's execution had %d seeds, want its own 1 (the cancelled request's 5 dropped)", tm.Seeds)
		}
		if got := metrics.ServeBatchVertices.Count() - executions; got != round {
			t.Fatalf("%d executions after %d live requests", got, round)
		}
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
		Window: 200 * time.Microsecond, Runners: 2, QueueDepth: 64})
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
	e := newTestEngine(t, m, ds, time.Millisecond)
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
	e := newTestEngine(f, m, ds, 50*time.Microsecond)
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
