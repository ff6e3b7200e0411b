package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// Layer probes: each layer's public kernels called directly, at the exact
// shapes the workloads use, after the traced passes. A probe reports the
// median of a few calls; bytes are computed from the operand sizes (8-byte
// values, 4-byte column indices, 8-byte row pointers), not measured.

// timeCalls runs f reps times after one untimed call and returns the median
// seconds of a call. It collects garbage first: on a heap that is still
// growing every allocation is fresh memory, and first-touch page faults on
// the reference box cost more than most of the kernels measured here.
func timeCalls(reps int, f func()) float64 {
	runtime.GC()
	f()
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = time.Since(t0).Seconds()
	}
	return median(times)
}

// probes holds what the layer probes share.
type probes struct {
	cfg  config
	r    *report
	host *hostCeilings
	reps int
}

func randomDense(rows, cols int, seed int64) *dense {
	return newDense(rows, cols, genFeatures(rows, cols, nil, 0, seed))
}

// tensor: the dense products of a training step at train-flat's shapes.
func (p *probes) tensor(n int) {
	k := p.cfg.sz.k
	a, b, out := randomDense(n, k, 11), randomDense(k, k, 12), zeroDense(n, k)
	s := timeCalls(p.reps, func() { mmInto(out, a, b) })
	gflops := 2 * float64(n) * float64(k) * float64(k) / s / 1e9
	p.r.put("tensor.mm_s", s, "s")
	p.r.put("tensor.mm_gflops", gflops, "GFLOP/s")
	p.r.put("tensor.mm_roof_frac", gflops/p.host.fmaGflops, "ratio")
	g, acc := randomDense(n, k, 13), zeroDense(k, k)
	p.r.put("tensor.tmm_s", timeCalls(p.reps, func() { tmmAccumulate(acc, a, g) }), "s")
}

// sparse: SpMM, SDDMM and row softmax on one adjacency, under a suffix.
func (p *probes) sparse(a *csr, suffix string) {
	n, k := rowsOf(a), p.cfg.sz.k
	x, out := randomDense(n, k, 21), zeroDense(n, k)
	s := timeCalls(p.reps, func() { spmmInto(a, out, x) })
	bytes := float64(nnz(a))*(8+4) + float64(n+1)*8 + 2*float64(n)*float64(k)*8
	p.r.put("sparse.spmm_s"+suffix, s, "s")
	p.r.put("sparse.spmm_gbs"+suffix, bytes/s/1e9, "GB/s")
	p.r.put("sparse.spmm_roof_frac"+suffix, bytes/s/1e9/p.host.streamGBs, "ratio")
	var scores *csr
	p.r.put("sparse.sddmm_s"+suffix, timeCalls(p.reps, func() { scores = sddmm(a, x, x) }), "s")
	vals := make([]float64, nnz(a))
	p.r.put("sparse.softmax_s"+suffix, timeCalls(p.reps, func() { rowSoftmaxInto(vals, scores) }), "s")
}

// kernels: the fused score + softmax + aggregate sweep, the direct kernel
// the plan's fused op mirrors. Bytes per edge: a 4-byte column index and
// one k-wide row of 8-byte features gathered.
func (p *probes) fusedAttn(a *csr, suffix string, call func(x *dense)) {
	n, k := rowsOf(a), p.cfg.sz.k
	x := randomDense(n, k, 31)
	s := timeCalls(p.reps, func() { call(x) })
	p.r.put("kernels.fused_attn_s"+suffix, s, "s")
	p.r.put("kernels.fused_attn_edges_per_s"+suffix, float64(nnz(a))/s, "1/s")
	bytes := float64(nnz(a))*(4+8*float64(k)) + 2*float64(n)*float64(k)*8
	p.r.put("kernels.fused_attn_roof_frac"+suffix, bytes/s/1e9/p.host.streamGBs, "ratio")
}

// par: what one more worker buys on a whole forward, and the cost of
// waking the pool for nothing.
func (p *probes) par(name string, fwd func()) {
	w := workers()
	tw := timeCalls(p.reps, fwd)
	setWorkers(1)
	t1 := timeCalls(p.reps, fwd)
	setWorkers(w)
	p.r.put("par.efficiency."+name, t1/(float64(w)*tw), "ratio")
}

func (p *probes) parDispatch() {
	const calls = 2000
	s := timeCalls(p.reps, func() {
		for i := 0; i < calls; i++ {
			parRange(1<<20, func(worker, lo, hi int) {})
		}
	})
	p.r.put("par.dispatch_us", s/calls*1e6, "us")
}

// compileS is what the first forward of a model costs beyond a warm one:
// the layers' plans compiled through the layer's own plan path.
func compileS(m *model, fwd func()) float64 {
	warm := timeCalls(2, fwd)
	releasePlans(m)
	purgePlanCache()
	t0 := time.Now()
	fwd()
	return time.Since(t0).Seconds() - warm
}

// hubProbes: everything measured on the hub graph and the infer-hub model.
func (p *probes) hub(w *hub) error {
	p.sparse(w.a, ".hub")
	p.fusedAttn(w.a, ".hub", func(x *dense) { fusedAttnAGNN(w.a, w.h, x) })
	p.par("hub", func() { forward(w.m, w.h) })
	p.r.put("fuse.compile_s.hub", compileS(w.m, func() { forward(w.m, w.h) }), "s")
	p.r.put("fuse.plan_fwd_s", timeCalls(p.reps, func() { layerForward(w.m, 0, w.h, false) }), "s")
	spec := w.spec
	spec.f32 = false
	m64, err := newModel(spec, w.a)
	if err != nil {
		return err
	}
	p.r.put("fuse.plan_fwd_s.f64", timeCalls(p.reps, func() { layerForward(m64, 0, w.h, false) }), "s")
	releasePlans(m64)
	c := newCOO(w.edges)
	t0 := time.Now()
	fromCOO(c)
	p.r.put("sparse.from_coo_s", time.Since(t0).Seconds(), "s")
	p.r.put("sparse.transpose_s", timeCalls(p.reps, func() { transpose(w.a) }), "s")
	p.r.put("graph.add_self_loops_s", timeCalls(p.reps, func() { addSelfLoops(w.a) }), "s")
	return nil
}

// flatProbes: everything measured on the flat graph and the GAT model.
func (p *probes) flat(w *flat) error {
	n := rowsOf(w.a)
	p.tensor(n)
	p.sparse(w.a, ".flat")
	rng := rand.New(rand.NewSource(41))
	u, v := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i], v[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	p.fusedAttn(w.a, ".flat", func(x *dense) { fusedAttnGAT(w.a, u, v, x) })
	p.par("flat", func() { layerForward(w.m, 0, w.h, true) })
	// One layer's training plan, forward then backward, timed apart.
	out := layerForward(w.m, 0, w.h, true)
	g := randomDense(n, denseCols(out), 42)
	p.r.put("fuse.plan_bwd_s", timeCalls(p.reps, func() {
		zeroGrad(w.m)
		layerBackward(w.m, 0, g)
	}), "s")
	t0 := time.Now()
	if _, err := newModel(w.spec, w.a); err != nil {
		return err
	}
	p.r.put("gnn.new_s", time.Since(t0).Seconds(), "s")

	outDir, err := benchOutDir()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t0 = time.Now()
	path, err := ckptSave(dir, w.m)
	if err != nil {
		return err
	}
	p.r.put("ckpt.save_s", time.Since(t0).Seconds(), "s")
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.r.put("ckpt.bytes", float64(st.Size()), "B")
	t0 = time.Now()
	if err := ckptLoad(path, w.m); err != nil {
		return err
	}
	p.r.put("ckpt.load_s", time.Since(t0).Seconds(), "s")
	return nil
}

// egoProbes: the per-query calls of the serving path on one ego subgraph,
// each alone.
func (p *probes) ego(w *ego) error {
	seed := int32(w.pool.vertices[0])
	hops := w.spec.layers
	var verts []int32
	p.r.put("serving.expand_call_s", timeCalls(p.reps, func() { verts = expand(w.adj, seed, hops) }), "s")
	var sub *csr
	p.r.put("graph.induced_subgraph_s", timeCalls(p.reps, func() { sub = inducedSubgraph(w.adj, verts) }), "s")
	p.r.put("sparse.fingerprint_s", timeCalls(p.reps, func() { fingerprint(sub) }), "s")
	var bound *model
	var err error
	p.r.put("gnn.rebind_s", timeCalls(p.reps, func() { bound, err = rebindAdjacency(w.m, sub) }), "s")
	if err != nil {
		return err
	}
	feats := zeroDense(len(verts), p.cfg.sz.k)
	for i, v := range verts {
		copy(denseRow(feats, i), denseRow(w.h, int(v)))
	}
	fwd := func() { plannedForward(bound, feats) }
	p.r.put("fuse.compile_s.ego", compileS(bound, fwd), "s")
	// A hit: hand the plans back to the cache and lease them again, which
	// is what a warm rebind pays per layer on top of the forward itself
	// (fingerprint of the subgraph, lookup, LRU bookkeeping).
	hit := timeCalls(p.reps, func() {
		releasePlans(bound)
		fwd()
	})
	warm := timeCalls(p.reps, fwd)
	p.r.put("fuse.cache_get_hit_us", (hit-warm)/float64(numLayers(bound))*1e6, "us")
	releasePlans(bound)
	return nil
}

// collectives times allreduce, bcast and allgather on one world at the
// grid engine's payloads: a softmax vector of B words, a feature block of
// B·k words, a rank's share of the features. Ranks enter each call together
// and a call takes as long as its slowest rank. Over TCP a 1-word and a
// B·k-word ping-pong between two ranks give the transport's latency and
// per-byte cost.
func (p *probes) collectives(tcp bool, prefix string, n int) error {
	k, block, reps := p.cfg.sz.k, n/2, p.reps // block: rows of a 2×2 grid block
	names := []string{"allreduce", "bcast", "allgather"}
	times := make([][][]float64, len(names)) // [collective][rank][rep]
	for i := range times {
		times[i] = make([][]float64, gridRanks)
	}
	var alpha, beta float64
	runtime.GC()
	_, err := runRanks(gridRanks, tcp, func(c *comm) error {
		rank := rankOf(c)
		vec, blk, share := make([]float64, block), make([]float64, block*k), make([]float64, n*k/gridRanks)
		calls := []func(){
			func() { allreduce(c, vec) },
			func() { bcast(c, blk, 0) },
			func() { allgather(c, share) },
		}
		for i, call := range calls {
			for rep := 0; rep <= reps; rep++ { // the first is warm-up
				barrier(c)
				t0 := time.Now()
				call()
				if d := time.Since(t0).Seconds(); rep > 0 {
					times[i][rank] = append(times[i][rank], d)
				}
			}
		}
		if !tcp {
			return nil
		}
		oneWay := func(words int) float64 {
			msg := make([]float64, words)
			var rtts []float64
			for rep := 0; rep <= reps; rep++ {
				barrier(c)
				t0 := time.Now()
				switch rank {
				case 0:
					sendTo(c, 1, msg)
					recvFrom(c, 1)
				case 1:
					sendTo(c, 0, recvFrom(c, 0))
				}
				if rep > 0 {
					rtts = append(rtts, time.Since(t0).Seconds())
				}
			}
			return median(rtts) / 2
		}
		small, large := oneWay(1), oneWay(block*k)
		if rank == 0 {
			alpha, beta = small, (large-small)/float64(8*(block*k-1))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s collectives: %w", prefix, err)
	}
	for i, name := range names {
		slowest := make([]float64, reps)
		for rep := range slowest {
			for rank := 0; rank < gridRanks; rank++ {
				slowest[rep] = math.Max(slowest[rep], times[i][rank][rep])
			}
		}
		p.r.put(prefix+"."+name+"_s", median(slowest), "s")
	}
	if tcp {
		p.r.put("net.alpha_us", alpha*1e6, "us")
		p.r.put("net.beta_ns_per_byte", beta*1e9, "ns/B")
	}
	return nil
}
