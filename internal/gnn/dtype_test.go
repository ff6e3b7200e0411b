package gnn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/obs"
	"agnn/internal/par"
	"agnn/internal/tensor"
)

// dtypeCfg is the model configuration the f32-vs-f64 differential tests
// run: Tanh keeps magnitudes bounded so relative tolerances are meaningful.
func dtypeCfg(kind Kind, heads int, dt tensor.DType) Config {
	return Config{Model: kind, Layers: 2, InDim: 4, HiddenDim: 5, OutDim: 3,
		Activation: Tanh(), SelfLoops: true, Heads: heads, Seed: 71, DType: dt}
}

// TestGradCheckF32 is the finite-difference check against the f32 plans
// directly, with loosened steps (gradCheckModelStep).
func TestGradCheckF32(t *testing.T) {
	a := testGraph(10, 76)
	m, err := New(Config{Model: AGNN, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2,
		Activation: Tanh(), SelfLoops: true, Seed: 77, DType: tensor.F32}, a)
	if err != nil {
		t.Fatal(err)
	}
	h0 := tensor.RandN(10, 3, 0.8, rand.New(rand.NewSource(78)))
	loss := &MSELoss{Target: tensor.RandN(10, 2, 1, rand.New(rand.NewSource(79)))}
	gradCheckModelStep(t, m, h0, loss, 1e-3, 2e-2)
}

// TestWeightsF32RoundTrip: an f32 model checkpoints in the v3 format with
// float32 parameter data, and restores exactly (load values are the f32
// rounding of the saved masters).
func TestWeightsF32RoundTrip(t *testing.T) {
	a := testGraph(12, 82)
	m, err := New(dtypeCfg(GAT, 1, tensor.F32), a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, m); err != nil {
		t.Fatal(err)
	}
	if magic := buf.String()[:8]; magic != "AGNNWTS3" {
		t.Fatalf("f32 checkpoint magic %q, want AGNNWTS3", magic)
	}

	cfg2 := dtypeCfg(GAT, 1, tensor.F32)
	cfg2.Seed = 999 // different init; load must overwrite it
	m2, err := New(cfg2, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), m2); err != nil {
		t.Fatal(err)
	}
	ps, qs := m.Params(), m2.Params()
	for i := range ps {
		for j, v := range ps[i].Value.Data {
			if got := qs[i].Value.Data[j]; got != float64(float32(v)) {
				t.Fatalf("%s[%d]: loaded %v, want f32 rounding of %v", ps[i].Name, j, got, v)
			}
		}
	}
}

// TestWeightsCrossDtypeRefused: resuming a checkpoint at the other dtype is
// a loud error, not a silent numerics change.
func TestWeightsCrossDtypeRefused(t *testing.T) {
	a := testGraph(12, 83)
	m32, err := New(dtypeCfg(AGNN, 1, tensor.F32), a)
	if err != nil {
		t.Fatal(err)
	}
	m64, err := New(dtypeCfg(AGNN, 1, tensor.F64), a)
	if err != nil {
		t.Fatal(err)
	}

	var f32ckpt, f64ckpt bytes.Buffer
	if err := SaveWeights(&f32ckpt, m32); err != nil {
		t.Fatal(err)
	}
	if err := SaveWeights(&f64ckpt, m64); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(bytes.NewReader(f32ckpt.Bytes()), m64); err == nil {
		t.Error("f32 checkpoint loaded into an f64 model without error")
	}
	if err := LoadWeights(bytes.NewReader(f64ckpt.Bytes()), m32); err == nil {
		t.Error("f64 checkpoint loaded into an f32 model without error")
	}
}

// TestWeightsF64StaysV2: the default path's checkpoint bytes are identical
// to the dtype-unaware format — SaveWeights of an f64 model and the
// engine-agnostic SaveParams produce the same v2 stream.
func TestWeightsF64StaysV2(t *testing.T) {
	a := testGraph(12, 84)
	m, err := New(dtypeCfg(VA, 1, tensor.F64), a)
	if err != nil {
		t.Fatal(err)
	}
	var viaModel, viaParams bytes.Buffer
	if err := SaveWeights(&viaModel, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveParams(&viaParams, m.Params()); err != nil {
		t.Fatal(err)
	}
	if magic := viaModel.String()[:8]; magic != "AGNNWTS2" {
		t.Fatalf("f64 checkpoint magic %q, want AGNNWTS2", magic)
	}
	if !bytes.Equal(viaModel.Bytes(), viaParams.Bytes()) {
		t.Fatal("f64 SaveWeights bytes differ from the dtype-unaware SaveParams format")
	}
}

// sameBitsDense reports the first element at which two matrices differ by
// bit pattern, or -1.
func sameBitsDense(a, b *tensor.Dense) int {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i
		}
	}
	return -1
}

// opaqueLayer hides a layer's DAG: the model can only call its Forward and
// Backward.
type opaqueLayer struct{ Layer }

// planState is what identifies the program a model's last step ran: each
// layer's training plan and the workspace it holds.
func planState(m *Model) (plans []*fuse.Plan, workspace []int64) {
	for _, l := range m.Layers {
		p := l.(DAGLayer).core().Plan()
		plans = append(plans, p)
		workspace = append(workspace, p.Stats().WorkspaceBytes())
	}
	return
}

// recordedStepMatches steps model — which has just run a training step on
// (h, gOut) unrecorded — once more with recording on, and requires the same
// bits from the same plans with the same conversion buffers, the layer
// records on the log, and ReleasePlans releasing every plan afterwards.
func recordedStepMatches(t *testing.T, what func(string) string, model *Model, h, gOut *tensor.Dense) {
	t.Helper()
	model.ZeroGrad()
	out := model.Forward(h, true).Clone()
	gin := model.Backward(gOut).Clone()
	plans, workspace := planState(model)
	var grads []*tensor.Dense
	for _, p := range model.Params() {
		grads = append(grads, p.Grad.Clone())
		p.ZeroGrad()
	}
	live := fuse.LivePlans()

	obs.StartRecording()
	defer obs.StopRecording()
	if i := sameBitsDense(model.Forward(h, true), out); i >= 0 {
		t.Error(what("recorded training output"), "differs at", i)
	}
	if i := sameBitsDense(model.Backward(gOut), gin); i >= 0 {
		t.Error(what("recorded input cotangent"), "differs at", i)
	}
	for p, param := range model.Params() {
		if i := sameBitsDense(param.Grad, grads[p]); i >= 0 {
			t.Error(what("recorded gradient of parameter "+param.Name), p, "differs at", i)
		}
	}
	rplans, rworkspace := planState(model)
	for l := range plans {
		if rplans[l] != plans[l] || rworkspace[l] != workspace[l] {
			t.Error(what("recorded step"), "ran layer", l, "on plan", rplans[l], "with", rworkspace[l],
				"workspace bytes; unrecorded:", plans[l], workspace[l])
		}
	}
	spans := map[string]int64{}
	for _, s := range obs.BuildReport().Spans {
		spans[s.Name] = s.Count
	}
	kind := model.Layers[0].Name()
	for want, n := range map[string]int64{"layer0.forward(" + kind + ")": 1, "layer2.backward(" + kind + ")": 1,
		kind + ".Hout": int64(len(plans))} {
		if spans[want] != n {
			t.Error(what("recorded step"), "left", spans[want], "records named", want, "— want", n, "of", spans)
		}
	}
	if got := fuse.LivePlans(); got != live {
		t.Error(what("recorded step"), "changed the live plans from", live, "to", got)
	}
	held := 0 // the model's own plans: a training and an inference plan per layer
	for _, l := range model.Layers {
		for _, c := range []*layerPlan{&l.(DAGLayer).core().train, &l.(DAGLayer).core().infer} {
			if c.plan != nil {
				held++
			}
		}
	}
	model.ReleasePlans()
	if got, want := fuse.LivePlans(), live-held; got != want || held != 2*len(plans) {
		t.Error(what("ReleasePlans after a recorded step"), "left", got, "plans live, want", want, "after releasing", held)
	}
}

// TestModelTypedHandoffMatchesLayerChain: Model.Forward and Model.Backward
// hand the activation from plan to plan at the plans' width; calling the
// layers one after the other hands every one a float64 matrix. float32 →
// float64 → float32 is exact, so the two must agree bit for bit — forward
// output in both modes, input cotangent and every parameter gradient — on a
// three-layer stack (every boundary typed) and on a five-layer one with a
// DropoutLayer and a layer that is not a DAGLayer in the middle, which are
// handed a *tensor.Dense either way and sit between typed boundaries.
//
// Recording a run must not change the program: the same model stepped again
// with recording on gives the same bits from the same plans, and crosses the
// float64 boundary where it did before — a plan acquires each conversion
// buffer where one first crosses, so its workspace says which casts ran.
func TestModelTypedHandoffMatchesLayerChain(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)
	a := testGraph(300, 81)
	h := tensor.RandN(300, 4, 0.8, rand.New(rand.NewSource(82)))
	gOut := tensor.RandN(300, 3, 0.5, rand.New(rand.NewSource(83)))

	// build returns the stack; mixed puts the two non-plan layers in.
	build := func(kind Kind, dt tensor.DType, layers int, mixed bool) *Model {
		cfg := dtypeCfg(kind, 1, dt)
		cfg.Layers = layers
		m, err := New(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		if mixed {
			l := m.Layers
			m.Layers = []Layer{l[0], l[1], NewDropout(0.25, 84), opaqueLayer{l[2]}, l[3], l[4]}
		}
		return m
	}
	for _, workers := range []int{1, 3} {
		par.SetWorkers(workers)
		for _, kind := range []Kind{AGNN, GAT, GCN} {
			for _, dt := range []tensor.DType{tensor.F32, tensor.F64} {
				for _, mixed := range []bool{false, true} {
					layers := 3
					if mixed {
						layers = 5
					}
					model, chain := build(kind, dt, layers, mixed), build(kind, dt, layers, mixed)
					what := func(s string) string {
						return fmt.Sprintf("%v %v workers=%d mixed=%v: %s", kind, dt, workers, mixed, s)
					}
					x := h
					for _, l := range chain.Layers {
						x = l.Forward(x, false)
					}
					if i := sameBitsDense(model.Forward(h, false), x); i >= 0 {
						t.Error(what("inference output"), "differs at", i)
					}
					x = h
					for _, l := range chain.Layers {
						x = l.Forward(x, true)
					}
					if i := sameBitsDense(model.Forward(h, true), x); i >= 0 {
						t.Error(what("training output"), "differs at", i)
					}
					g := gOut
					for l := len(chain.Layers) - 1; l >= 0; l-- {
						g = chain.Layers[l].Backward(g)
					}
					if i := sameBitsDense(model.Backward(gOut), g); i >= 0 {
						t.Error(what("input cotangent"), "differs at", i)
					}
					mp, cp := model.Params(), chain.Params()
					for p := range mp {
						if i := sameBitsDense(mp[p].Grad, cp[p].Grad); i >= 0 {
							t.Error(what("gradient of parameter "+mp[p].Name), p, "differs at", i)
						}
					}
					if !mixed {
						recordedStepMatches(t, what, model, h, gOut)
					}
					model.ReleasePlans()
					chain.ReleasePlans()
				}
			}
		}
	}
}

// TestModelStepAcrossWidthChange: a layer the model sees no plan of that
// changes the width (here a DAG layer 5 → 7 hidden behind opaqueLayer) runs
// between two DAG layers. The model cannot know the width the layer after it
// is handed before a step has run: the first step runs that layer on a plan
// of its own, and from the second on the model's step holds it, planned for
// the width it was handed, and nothing compiles again. Every step gives the
// bits of the layers called one by one.
func TestModelStepAcrossWidthChange(t *testing.T) {
	a := testGraph(120, 85)
	h := tensor.RandN(120, 4, 0.8, rand.New(rand.NewSource(86)))
	gOut := tensor.RandN(120, 3, 0.5, rand.New(rand.NewSource(87)))
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		build := func() *Model {
			front, err := New(Config{Model: GAT, Layers: 2, InDim: 4, HiddenDim: 5, OutDim: 7, Activation: Tanh(), Seed: 88, DType: dt}, a)
			if err != nil {
				t.Fatal(err)
			}
			back, err := New(Config{Model: GAT, Layers: 1, InDim: 7, OutDim: 3, Activation: Tanh(), Seed: 89, DType: dt}, a)
			if err != nil {
				t.Fatal(err)
			}
			return &Model{Layers: []Layer{front.Layers[0], opaqueLayer{front.Layers[1]}, back.Layers[0]}, DType: dt}
		}
		model, chain := build(), build()
		var plan *fuse.Plan
		var live int
		for step := 0; step < 3; step++ {
			x := h
			for _, l := range chain.Layers {
				x = l.Forward(x, true)
			}
			g := gOut
			for l := len(chain.Layers) - 1; l >= 0; l-- {
				g = chain.Layers[l].Backward(g)
			}
			if i := sameBitsDense(model.Forward(h, true), x); i >= 0 {
				t.Errorf("%v step %d: output differs at %d", dt, step, i)
			}
			if i := sameBitsDense(model.Backward(gOut), g); i >= 0 {
				t.Errorf("%v step %d: input cotangent differs at %d", dt, step, i)
			}
			mp, cp := model.Params(), chain.Params()
			for p := range mp {
				if i := sameBitsDense(mp[p].Grad, cp[p].Grad); i >= 0 {
					t.Errorf("%v step %d: gradient %d differs at %d", dt, step, p, i)
				}
			}
			last := model.Layers[2].(DAGLayer).core().Plan()
			if step == 2 && (last != plan || fuse.LivePlans() != live) {
				t.Errorf("%v: the second step and the third ran the last layer on different plans, live plans %d then %d", dt, live, fuse.LivePlans())
			}
			plan, live = last, fuse.LivePlans()
		}
		model.ReleasePlans()
		chain.ReleasePlans()
	}
}
