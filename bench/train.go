package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// train-flat: full-batch float64 GAT training on a planted-partition graph
// with short, uniform rows. It drives the same fuse, sparse and tensor
// layers as infer-hub differently: the training-mode sweep that writes
// scores, backward SDDMM and Sᵀ·X, the weight-gradient TMM and the
// optimizer. A kernel tuned for hubs or for float32 that costs short rows,
// backward or float64 shows here. The task is learnable, so time to a loss
// target is a real quantity.

type flat struct {
	edges  *edgeList
	labels []int
	x      []float64
	spec   modelSpec

	a    *csr
	m    *model
	h    *dense
	loss lossFn
	opt  optimizer
}

func genFlat(cfg config) *flat {
	w := &flat{}
	w.edges, w.labels = genPlanted(cfg.sz.flatN, cfg.sz.classes, 10, 4, cfg.seed)
	w.x = genFeatures(w.edges.n, cfg.sz.k, w.labels, 0.8, cfg.seed+1)
	w.spec = modelSpec{kind: "GAT", layers: 2, in: cfg.sz.k, hidden: cfg.sz.k,
		out: cfg.sz.classes, selfLoops: true, seed: cfg.seed}
	return w
}

// setup goes from the edge list to a model that has taken one warm-up
// training step, which compiles the training plans.
func (w *flat) setup() (float64, error) {
	if w.m != nil {
		releasePlans(w.m)
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
	w.loss = newCrossEntropy(w.labels)
	w.opt = newAdam(0.01)
	trainStep(w.m, w.h, w.loss, w.opt)
	return time.Since(t0).Seconds(), nil
}

// accuracy is the share of vertices whose largest logit is their label.
func accuracy(logits *dense, labels []int) float64 {
	hit := 0
	for v, want := range labels {
		if argmax(denseRow(logits, v)) == want {
			hit++
		}
	}
	return float64(hit) / float64(len(labels))
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func (w *flat) run(cfg config, r *report) error {
	first, err := w.setup()
	if err != nil {
		return err
	}
	r.note("nnz", fmt.Sprint(nnz(w.a)))
	r.note("max_row_nnz", fmt.Sprint(maxRowNNZ(w.a)))
	times := make([]float64, cfg.sz.trainSteps)
	losses := make([]float64, len(times))
	for i := range times {
		t0 := time.Now()
		losses[i] = trainStep(w.m, w.h, w.loss, w.opt)
		times[i] = time.Since(t0).Seconds()
		r.attempted++
		if math.IsNaN(losses[i]) || math.IsInf(losses[i], 0) {
			r.failed++
		}
	}
	r.put("peak_rss_mb", peakRSSMB(), "MB")

	reached := -1
	for i, l := range losses {
		if l <= cfg.sz.target {
			reached = i
			break
		}
	}
	if reached >= 0 {
		r.put("time_to_target_s", sum(times[:reached+1]), "s")
		r.put("epochs_to_target", float64(reached+1), "count")
	}
	acc := accuracy(forward(w.m, w.h), w.labels)
	r.check("reaches-target", reached >= 0, "loss %.4f -> %.4f, first <= %.2f at timed step %d of %d",
		losses[0], losses[len(losses)-1], cfg.sz.target, reached+1, len(losses))
	r.check("train-accuracy", acc >= 0.95 || cfg.sz.smoke, "train accuracy %.4f (limit 0.95)", acc)
	r.losses = losses
	setups, err := repeatSetup(first, cfg.sz.setups, w.setup)
	if err != nil {
		return err
	}
	putEndToEnd(r, setups, times, float64(nnz(w.a)))
	return nil
}

// trace takes n training steps call by call — per-layer forward, loss,
// per-layer backward, optimizer — on a freshly set-up model, so the losses
// are those of the first n timed steps of run. It returns them.
func (w *flat) trace(t *tracer, n int, r *report) ([]float64, error) {
	if _, err := w.setup(); err != nil {
		return nil, err
	}
	L := numLayers(w.m)
	losses := make([]float64, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for step := 0; step < n; step++ {
		root := t.begin("train.step", -1, step, 0)
		t.in("gnn.zero_grad", root, step, 0, func() { zeroGrad(w.m) })
		h := w.h
		for l := 0; l < L; l++ {
			t.in(fmt.Sprintf("gnn.train_fwd.l%d", l), root, step, 0, func() {
				h = layerForward(w.m, l, h, true)
			})
		}
		var g *dense
		t.in("gnn.loss", root, step, 0, func() { losses[step], g = lossEval(w.loss, h) })
		for l := L - 1; l >= 0; l-- {
			t.in(fmt.Sprintf("gnn.bwd.l%d", l), root, step, 0, func() {
				g = layerBackward(w.m, l, g)
			})
		}
		t.in("gnn.opt", root, step, 0, func() { optStep(w.opt, w.m) })
		t.end(root)
	}
	runtime.ReadMemStats(&ms1)
	for l := 0; l < L; l++ {
		r.put(fmt.Sprintf("gnn.train_fwd_s.l%d", l), median(t.seconds(fmt.Sprintf("gnn.train_fwd.l%d", l), -1)), "s")
		r.put(fmt.Sprintf("gnn.bwd_s.l%d", l), median(t.seconds(fmt.Sprintf("gnn.bwd.l%d", l), -1)), "s")
	}
	r.put("gnn.loss_s", median(t.seconds("gnn.loss", -1)), "s")
	r.put("gnn.opt_s", median(t.seconds("gnn.opt", -1)), "s")
	r.put("gnn.closure_frac.flat", t.closure("train.step"), "ratio")
	r.put("gnn.allocs_per_step", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count")
	ops, fused, ws := trainPlanStats(w.m)
	r.put("fuse.plan_ops", float64(ops), "count")
	r.put("fuse.attn_fused", float64(fused), "count")
	r.put("fuse.plan_workspace_bytes", float64(ws), "B")
	return losses, nil
}
