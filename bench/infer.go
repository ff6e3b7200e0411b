package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"
	"unsafe"
)

// infer-hub: full-graph planned float32 inference with AGNN on an R-MAT
// graph whose hub rows dominate. The fused SDDMM + softmax + SpMM sweep is
// nearly all of a step, so a change to the score evaluation, row
// scheduling or vectorisation shows here; compile cost sits in setup_s and
// the comm and serving code never runs.

type hub struct {
	edges *edgeList
	x     []float64
	spec  modelSpec

	a *csr
	m *model
	h *dense
}

func genHub(cfg config) *hub {
	w := &hub{edges: genRMAT(cfg.sz.hubScale, 16, cfg.seed)}
	w.x = genFeatures(w.edges.n, cfg.sz.k, nil, 0, cfg.seed+1)
	k := cfg.sz.k
	w.spec = modelSpec{kind: "AGNN", layers: 3, in: k, hidden: k, out: k,
		f32: true, planInfer: true, seed: cfg.seed}
	return w
}

// setup goes from the edge list to a model that has run two warm-up
// forwards (the first compiles the plans) and returns the seconds it took.
// The copy into the program's coordinate format is not timed: FromCOO sorts
// in place and needs a fresh one each time.
func (w *hub) setup() (float64, error) {
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
	forward(w.m, w.h)
	forward(w.m, w.h)
	return time.Since(t0).Seconds(), nil
}

// checksum hashes the bits of a matrix.
func checksum(d *dense) uint64 {
	data := denseData(d)
	h := fnv.New64a()
	h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data)))
	return h.Sum64()
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// steps runs n timed forwards. A step fails if its output is not finite or
// differs from the first step's: the plan is deterministic.
func (w *hub) steps(n int, r *report) []float64 {
	times := make([]float64, n)
	var first uint64
	for i := range times {
		t0 := time.Now()
		out := forward(w.m, w.h)
		times[i] = time.Since(t0).Seconds()
		sum := checksum(out)
		if i == 0 {
			first = sum
		}
		r.attempted++
		if sum != first || !allFinite(denseData(out)) {
			r.failed++
		}
	}
	return times
}

func (w *hub) run(cfg config, r *report) error {
	first, err := w.setup()
	if err != nil {
		return err
	}
	r.note("nnz", fmt.Sprint(nnz(w.a)))
	r.note("max_row_nnz", fmt.Sprint(maxRowNNZ(w.a)))
	times := w.steps(cfg.sz.inferSteps, r)
	r.put("peak_rss_mb", peakRSSMB(), "MB")
	r.check("steps-repeat", r.failed == 0, "%d of %d forwards were finite and bitwise equal to the first", r.attempted-r.failed, r.attempted)
	if err := w.checkOracle(r); err != nil {
		return err
	}
	setups, err := repeatSetup(first, cfg.sz.setups, w.setup)
	if err != nil {
		return err
	}
	putEndToEnd(r, setups, times, float64(nnz(w.a)))
	return nil
}

// checkOracle compares the planned float32 output with a float64 forward
// of the same weights through the direct kernels.
func (w *hub) checkOracle(r *report) error {
	spec := w.spec
	spec.f32, spec.planInfer = false, false
	oracle, err := newModel(spec, w.a)
	if err != nil {
		return err
	}
	want := denseData(forward(oracle, w.h))
	got := denseData(forward(w.m, w.h))
	maxDiff, maxWant := 0.0, 0.0
	for i := range want {
		maxDiff = math.Max(maxDiff, math.Abs(got[i]-want[i]))
		maxWant = math.Max(maxWant, math.Abs(want[i]))
	}
	rel := maxDiff / maxWant
	r.check("f32-vs-f64-oracle", rel <= 1e-5, "max-abs relative difference %.3g (limit 1e-5)", rel)
	return nil
}

// trace runs n forwards layer by layer, each call in a span, on a fresh
// set-up.
func (w *hub) trace(t *tracer, n int, r *report) error {
	if _, err := w.setup(); err != nil {
		return err
	}
	for step := 0; step < n; step++ {
		root := t.begin("infer.step", -1, step, 0)
		h := w.h
		for l := 0; l < numLayers(w.m); l++ {
			t.in(fmt.Sprintf("gnn.fwd.l%d", l), root, step, 0, func() {
				h = layerForward(w.m, l, h, false)
			})
		}
		t.end(root)
	}
	for l := 0; l < numLayers(w.m); l++ {
		r.put(fmt.Sprintf("gnn.fwd_s.l%d", l), median(t.seconds(fmt.Sprintf("gnn.fwd.l%d", l), -1)), "s")
	}
	r.put("gnn.closure_frac.hub", t.closure("infer.step"), "ratio")
	return nil
}
