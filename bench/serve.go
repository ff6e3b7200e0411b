package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"
)

// serve-ego: an open loop of single-vertex 2-hop queries against the
// serving engine over the train-flat graph. Thousands of subgraphs of a few
// hundred vertices: Expand, InducedSubgraph, RebindAdjacency,
// fingerprinting, plan-cache lookup, compile and evict, and worker
// dispatch dominate; the attention sweep itself is small. Requests arrive
// on a Poisson schedule whether or not earlier ones were answered, and
// latency is timed from the instant a request was due, so a stall is
// charged to everything queued behind it.

const latencyLimitS = 0.050 // the p95 a rate must meet to be "in limit"

// refRate indexes the rate whose latencies are the gated metrics: 80 rps,
// about half of what the engine sustains. Its rung is twice as long as the
// others, so that its percentiles rest on twice the requests.
const refRate = 1

type ego struct {
	*flat
	eng  *engine
	adj  *csr // the model's processed adjacency, what the engine expands over
	pool *zipfPool
	rng  *rand.Rand
	cold int // sequential queries that end a set-up
}

func genEgo(cfg config) *ego {
	w := &ego{flat: genFlat(cfg), rng: rand.New(rand.NewSource(cfg.seed + 2)), cold: cfg.sz.coldQueries}
	w.pool = newZipfPool(w.edges.n, cfg.sz.pool, 1.1, w.rng)
	return w
}

// setup goes from the edge list to an engine that has answered its first
// cold queries, one after the other.
func (w *ego) setup() (float64, error) {
	if w.eng != nil {
		stopEngine(w.eng)
		purgePlanCache()
	}
	c, t0 := startSetup(w.edges)
	w.a = fromCOO(c)
	m, err := newModel(w.spec, w.a)
	if err != nil {
		return 0, err
	}
	w.m = m
	w.h = newDense(w.edges.n, w.spec.in, w.x)
	if w.eng, w.adj, err = newEngine(w.m, w.h); err != nil {
		return 0, err
	}
	for i := 0; i < w.cold; i++ {
		if _, _, _, err := predict(context.Background(), w.eng, w.pool.vertices[i]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// reply is what came back for one arrival.
type reply struct {
	vertex  int
	latency float64 // due to reply
	service float64 // handed to the engine to reply
	lag     float64 // due to handed to the engine: how late the generator ran
	sent    time.Time
	stages  stageTimes
	err     error
}

// rung plays one schedule against the engine in open loop: a scheduler
// sleeps until each arrival is due and starts a goroutine for it, then
// waits until every request has been answered.
func (w *ego) rung(schedule []arrival) []reply {
	replies := make([]reply, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range schedule {
		due := start.Add(time.Duration(a.due * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, vertex int) {
			defer wg.Done()
			sent := time.Now()
			_, _, tm, err := predict(context.Background(), w.eng, vertex)
			done := time.Now()
			replies[i] = reply{vertex: vertex, latency: done.Sub(due).Seconds(), service: done.Sub(sent).Seconds(),
				lag: sent.Sub(due).Seconds(), sent: sent, stages: tm, err: err}
		}(i, a.vertex)
	}
	wg.Wait()
	return replies
}

// rungStats summarises one rate.
type rungStats struct {
	rate         float64
	replies      []reply
	sent, failed int
	p50, p95     float64
	backlogGrows bool
	inLimit      bool
	latencies    []float64
}

func summarise(rate float64, replies []reply) rungStats {
	s := rungStats{rate: rate, replies: replies, sent: len(replies)}
	var queue []float64
	for _, rp := range replies {
		if rp.err != nil {
			s.failed++
			continue
		}
		s.latencies = append(s.latencies, rp.latency)
		q, _, _, _, _ := stageSeconds(rp.stages)
		queue = append(queue, q)
	}
	s.p50, s.p95 = quantile(s.latencies, 0.5), quantile(s.latencies, 0.95)
	// A backlog that grows shows as queue waits in the last third of the
	// rung well above those of the first third. The floor keeps waits that
	// are short beside the limit from counting as growth.
	if third := len(queue) / 3; third > 0 {
		first, last := quantile(queue[:third], 0.95), quantile(queue[len(queue)-third:], 0.95)
		s.backlogGrows = last > 2*first && last > latencyLimitS/2
	}
	s.inLimit = s.sent > 0 && s.p95 <= latencyLimitS && float64(s.failed) <= 0.01*float64(s.sent) && !s.backlogGrows
	return s
}

// ladder warms the engine up at the first rate, then plays each rate in
// turn for its number of seconds, draining between rates.
func (w *ego) ladder(rates, seconds []float64, warmS float64) []rungStats {
	w.rung(poissonSchedule(rates[0], warmS, w.pool, w.rng))
	out := make([]rungStats, len(rates))
	for i, rate := range rates {
		runtime.GC() // between rates nothing is in flight; the next rung starts from a collected heap
		out[i] = summarise(rate, w.rung(poissonSchedule(rate, seconds[i], w.pool, w.rng)))
	}
	return out
}

// egoNNZ is the size of the subgraph one query alone makes the engine
// build: the unit of useful work.
func (w *ego) egoNNZ(vertex int, memo map[int]int) int {
	if n, ok := memo[vertex]; ok {
		return n
	}
	n := nnz(inducedSubgraph(w.adj, expand(w.adj, int32(vertex), w.spec.layers)))
	memo[vertex] = n
	return n
}

// busyEdgesPerS is the adjacency nonzeros of the answered queries' own ego
// subgraphs per second the engine spent expanding and executing: its
// service rate, whatever the offered rate was. Requests of one micro-batch
// report the same expand and plan times and are counted once.
func (w *ego) busyEdgesPerS(replies []reply) float64 {
	memo := map[int]int{}
	type batch struct{ expand, plan float64 }
	seen := map[batch]bool{}
	edges, busy := 0.0, 0.0
	for _, rp := range replies {
		if rp.err != nil {
			continue
		}
		edges += float64(w.egoNNZ(rp.vertex, memo))
		_, _, e, p, _ := stageSeconds(rp.stages)
		if b := (batch{e, p}); !seen[b] {
			seen[b] = true
			busy += e + p
		}
	}
	return edges / busy
}

func (w *ego) run(cfg config, r *report) error {
	first, err := w.setup()
	if err != nil {
		return err
	}
	defer func() { stopEngine(w.eng) }()
	seconds := make([]float64, len(cfg.sz.rates))
	for i := range seconds {
		seconds[i] = cfg.sz.rungSeconds
	}
	seconds[refRate] *= 2
	rungs := w.ladder(cfg.sz.rates, seconds, cfg.sz.warmSeconds)
	maxRate, climbing := 0.0, true
	for i, s := range rungs {
		r.note(fmt.Sprintf("rate_%g", s.rate), fmt.Sprintf("sent %d failed %d p50 %.4g p95 %.4g backlog_grows %t in_limit %t",
			s.sent, s.failed, s.p50, s.p95, s.backlogGrows, s.inLimit))
		if i < cfg.sz.limitRates {
			r.attempted += s.sent
			r.failed += s.failed
		}
		if climbing = climbing && s.inLimit; climbing {
			maxRate = s.rate
		}
	}
	r.put("peak_rss_mb", peakRSSMB(), "MB")
	ref := rungs[refRate]
	r.put("step_s_p10", quantile(ref.latencies, 0.10), "s")
	r.put("step_s_p50", ref.p50, "s")
	q := tailQuantile(len(ref.latencies))
	r.put("step_s_tail", quantile(ref.latencies, q), "s")
	r.note("step_s_tail.percentile", fmtFloat(q))
	r.note("step_s.samples", fmtFloat(float64(len(ref.latencies))))
	noteSteps(r, ref.latencies)
	r.put("edges_per_s", w.busyEdgesPerS(ref.replies), "1/s")
	r.put("ok_share", 1-float64(r.failed)/float64(r.attempted), "ratio")
	r.put("max_rate_in_limit_rps", maxRate, "1/s")
	if err := w.checkAgainstFullGraph(r); err != nil {
		return err
	}
	setups, err := repeatSetup(first, cfg.sz.setups, w.setup)
	if err != nil {
		return err
	}
	r.put("setup_s", median(setups), "s")
	return nil
}

// checkAgainstFullGraph asks the engine about 64 pool vertices and compares
// with one planned forward over the whole graph.
func (w *ego) checkAgainstFullGraph(r *report) error {
	full := plannedForward(w.m, w.h)
	worst, wrong := 0.0, 0
	const samples = 64
	for i := 0; i < samples; i++ {
		v := w.pool.vertices[(i*31)%len(w.pool.vertices)]
		class, logits, _, err := predict(context.Background(), w.eng, v)
		if err != nil {
			return fmt.Errorf("check query for vertex %d: %w", v, err)
		}
		want := denseRow(full, v)
		if class != argmax(want) {
			wrong++
		}
		for j := range want {
			worst = math.Max(worst, math.Abs(logits[j]-want[j]))
		}
	}
	releasePlans(w.m)
	r.check("ego-equals-full-graph", wrong == 0 && worst <= 1e-9,
		"%d of %d classes differ, largest logit difference %.3g (limit 1e-9)", wrong, samples, worst)
	return nil
}

// trace plays the reference rung and the top rung with every request in a
// span whose children are the engine's own stage times.
func (w *ego) trace(cfg config, t *tracer, rungS float64, r *report) error {
	if _, err := w.setup(); err != nil {
		return err
	}
	defer stopEngine(w.eng)
	hits0, misses0, _, _ := planCacheState()
	top := len(cfg.sz.rates) - 1
	rungs := w.ladder([]float64{cfg.sz.rates[refRate], cfg.sz.rates[top]}, []float64{2 * rungS, rungS}, cfg.sz.warmSeconds)
	hits1, misses1, cacheBytes, cacheLen := planCacheState()
	ref := rungs[0]
	var queue, batch, expandS, plan, seeds, lag []float64
	for i, rp := range ref.replies {
		lag = append(lag, rp.lag)
		if rp.err != nil {
			continue
		}
		q, b, e, p, n := stageSeconds(rp.stages)
		queue, batch, expandS, plan = append(queue, q), append(batch, b), append(expandS, e), append(plan, p)
		seeds = append(seeds, float64(n))
		root := t.add("serve.request", -1, i, rp.sent, time.Duration(rp.service*float64(time.Second)))
		at := rp.sent
		for _, st := range []struct {
			name string
			s    float64
		}{{"serving.queue", q}, {"serving.batch", b}, {"serving.expand", e}, {"serving.plan", p}} {
			d := time.Duration(st.s * float64(time.Second))
			t.add(st.name, root, i, at, d)
			at = at.Add(d)
		}
	}
	r.put("serving.queue_s_p50", quantile(queue, 0.5), "s")
	r.put("serving.queue_s_p95", quantile(queue, 0.95), "s")
	r.put("serving.batch_s_p50", quantile(batch, 0.5), "s")
	r.put("serving.expand_s_p50", quantile(expandS, 0.5), "s")
	r.put("serving.expand_s_p95", quantile(expandS, 0.95), "s")
	r.put("serving.plan_s_p50", quantile(plan, 0.5), "s")
	r.put("serving.plan_s_p95", quantile(plan, 0.95), "s")
	r.put("serving.batch_seeds_mean", mean(seeds), "count")
	r.put("serving.closure_frac", t.closure("serve.request"), "ratio")
	r.put("serving.gen_lag_s_p99", quantile(lag, 0.99), "s")
	r.put("serving.shed_share_top", float64(rungs[1].failed)/float64(rungs[1].sent), "ratio")
	r.put("fuse.cache_hit_share", float64(hits1-hits0)/float64(hits1-hits0+misses1-misses0), "ratio")
	r.put("fuse.cache_bytes", float64(cacheBytes), "B")
	r.put("fuse.cache_len", float64(cacheLen), "count")
	return w.probeHTTP(r)
}

// probeHTTP measures what the HTTP layer adds to a query: the handler,
// driven through httptest with no socket, against the engine called
// directly, on one hot vertex so both hit the plan cache.
func (w *ego) probeHTTP(r *report) error {
	v := w.pool.vertices[0]
	h := httpHandler(w.eng)
	body, _ := json.Marshal(map[string]any{"vertices": []int{v}})
	const reps = 30
	direct, viaHTTP := make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, _, _, err := predict(context.Background(), w.eng, v); err != nil {
			return err
		}
		direct[i] = time.Since(t0).Seconds()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 = time.Now()
		h.ServeHTTP(rec, req)
		viaHTTP[i] = time.Since(t0).Seconds()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /v1/predict: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	r.put("serving.http_overhead_us", (median(viaHTTP)-median(direct))*1e6, "us")
	return nil
}
