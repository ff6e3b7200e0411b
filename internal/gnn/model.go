package gnn

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"agnn/internal/fuse"
	"agnn/internal/obs"
	"agnn/internal/tensor"
)

// Layer is one GNN layer: H_out = σ(Z(A, H_in, params)). Forward with
// training == true caches whatever intermediates the backward pass needs
// (Ψ, Z, projected features …), matching the paper's GnnLayer classes whose
// forward methods "allow caching of intermediate results for training";
// with training == false layers run fused inference-only sweeps that never
// materialize the attention matrix.
type Layer interface {
	// Forward computes the layer output σ(Z). In both modes the result may
	// be a buffer the layer does not own (a built-in layer returns a buffer
	// of the step its compiled plan runs in — its model's, once the model
	// has run a step, else the plan's own): it is valid until a later
	// position of that step reuses its storage — at the latest the next
	// Forward of the same layer, or Model.ReleasePlans — so copy it to keep
	// it longer. Layers bound to a process grid (NewBound) take and return,
	// here and in Backward, the diagonal rank's block, and nil on every
	// other rank.
	Forward(h *tensor.Dense, training bool) *tensor.Dense
	// Backward consumes ∂L/∂H_out, accumulates parameter gradients, and
	// returns ∂L/∂H_in. It must be called after a training-mode Forward.
	Backward(gOut *tensor.Dense) *tensor.Dense
	// Params returns the layer's trainable parameters.
	Params() []*Param
	// Name identifies the layer kind for reporting.
	Name() string
}

// TrainableLayer is implemented by layers that may refuse training — e.g. a
// GenericLayer with a semiring aggregation has no plan-derived backward. Model.CheckTrainable (and Train) surface the
// refusal as a descriptive error before any backward pass can panic
// mid-epoch. Layers that do not implement the interface are assumed
// trainable.
type TrainableLayer interface {
	// CanTrain returns nil when the layer supports Backward, or an error
	// explaining why it does not.
	CanTrain() error
}

// Model is a stack of GNN layers trained full-batch.
type Model struct {
	Layers []Layer
	// DType records the element width the layers' plans execute at (set by
	// New from Config.DType). Checkpoints stamp it so a resume across
	// dtypes fails loudly instead of silently changing numerics.
	DType tensor.DType

	// sites are the layers' instruments, wired on first use (profile.go).
	sites atomic.Pointer[[]*obs.Layer]
	// params is the layers' parameters, collected on first use.
	params atomic.Pointer[[]*Param]

	// steps holds the workspace of one step per mode, inference and
	// training: the DAG layers' plans laid out on one timeline (begin).
	steps  [2]*fuse.Step
	plans  []*fuse.Plan // scratch of begin
	linked []bool
	// forwarded: a training Forward ran since the last Backward, which reads
	// its values.
	forwarded bool
}

// CheckTrainable reports whether every layer supports training, identifying
// the first offending layer by index and kind.
func (m *Model) CheckTrainable() error {
	for i, l := range m.Layers {
		if tl, ok := l.(TrainableLayer); ok {
			if err := tl.CanTrain(); err != nil {
				return fmt.Errorf("gnn: layer %d (%s) cannot train: %w", i, l.Name(), err)
			}
		}
	}
	return nil
}

// Forward runs all layers on the input feature matrix. It first compiles or
// binds every DAG layer's plan for the step and lays their buffers out on
// one timeline (begin), so one layer's storage is another's once the first
// is done with it. The result is a buffer of that step: valid until a later
// position of it reuses its storage — in inference until the next Forward
// of this model or ReleasePlans, in training until Backward has passed the
// last layer (Backward reads it there) — so copy it to keep it longer.
// Between two DAG layers of one width the activation stays at that width —
// the next plan reads the previous one's output buffer — so a float32 model
// converts once on the way in and once on the way out; any other layer is
// handed a float64 matrix.
func (m *Model) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	m.forwarded = m.forwarded || training
	x := handoff{m: tensor.Typed{F64: h}}
	m.begin(training, x.m, nil)
	for i := range m.Layers {
		x = m.forwardLayer(i, x, training)
	}
	return x.dense(false)
}

// begin readies the step of one mode for features x: every DAG layer's plan
// compiled for its input width, or bound to its layer's adjacency, before
// any runs, and then the plans of the step Set on the mode's step — which
// lays their buffers out again only when a plan, a pattern or a crossing
// changed, so that no plan holds storage the layout has not placed. The
// first layer starts from pre's tables when pre is a block's prefix. A layer
// without a plan other than dropout may change the width: the step stops
// before the DAG layer after it until a step has shown the width that layer
// is handed, and that layer and the ones after it run as plans of their own
// until then.
func (m *Model) begin(train bool, x tensor.Typed, pre *Prefix) {
	mode := 0
	if train {
		mode = 1
	}
	if m.steps[mode] == nil {
		m.steps[mode] = &fuse.Step{}
	}
	_, in, known := x.Dims()
	plans, linked := m.plans[:0], m.linked[:0]
	after, unsure := false, false // the layer before is a DAG layer; one since the last may have changed the width
	for i, l := range m.Layers {
		dl, ok := l.(DAGLayer)
		if !ok {
			_, drop := l.(*DropoutLayer)
			after, unsure = false, unsure || !drop
			continue
		}
		c := dl.core()
		if lp := c.mode(train); unsure && lp.plan == nil {
			break
		} else if unsure {
			in = lp.in
		} else if !known {
			in = c.in
		}
		var pl *fuse.Plan
		if i == 0 && pre != nil && pre.Block {
			pl = c.plan(pre.in, false, pre)
		} else {
			pl = c.plan(in, train, nil)
		}
		if len(plans) > 0 {
			linked = append(linked, after)
		}
		plans, after, unsure = append(plans, pl), true, false
		_, in = pl.OutputDims()
		known = c.Grid == nil || c.Grid.Diag()
	}
	m.steps[mode].Set(plans, linked, x.F32 == nil)
	m.plans, m.linked = plans, linked
}

// forwardLayer runs layer i on the activation x, credited to the layer's
// instrument: the one place a layer's forward pass is timed, whoever drives
// the loop.
func (m *Model) forwardLayer(i int, x handoff, training bool) handoff {
	site, t0 := m.layerSites()[i], obs.Now()
	if dl, ok := m.Layers[i].(DAGLayer); ok && x.fits(dl.core().DType) {
		x = dl.core().forward(x.m, training)
	} else {
		x = handoff{m: tensor.Typed{F64: m.Layers[i].Forward(x.dense(false), training)}}
	}
	site.Forward(t0)
	return x
}

// backwardLayer is forwardLayer for the cotangent.
func (m *Model) backwardLayer(i int, x handoff) handoff {
	site, t0 := m.layerSites()[i], obs.Now()
	if dl, ok := m.Layers[i].(DAGLayer); ok && x.fits(dl.core().DType) {
		x = dl.core().backward(x.m)
	} else {
		x = handoff{m: tensor.Typed{F64: m.Layers[i].Backward(x.dense(true))}}
	}
	site.Backward(t0)
	return x
}

// LayerForward runs layer i of the model's inference on a float64 matrix,
// for an engine that moves data between layers itself (the halo-exchanging
// local engine): the layer is timed as in Forward. It is the layer's own
// inference Forward, in whatever step its plan runs: the model's, which from
// then on plans every float64 crossing of a float32 layer, or the plan's own
// when the model has run no step. What it returns is valid as Layer.Forward's
// result is; run a pass's layers in order, as Forward does.
func (m *Model) LayerForward(i int, h *tensor.Dense) *tensor.Dense {
	site, t0 := m.layerSites()[i], obs.Now()
	out := m.Layers[i].Forward(h, false)
	site.Forward(t0)
	return out
}

// Backward propagates ∇_{H^L}L through all layers in reverse, accumulating
// parameter gradients, and returns the gradient with respect to the input
// features (useful for gradient checking and for stacking models). The
// cotangent travels as the activation does in Forward, through the step the
// training Forward laid out: each layer's backward needs that Forward's
// values, which die at the last backward op reading them, so a second
// Backward without a training Forward first panics. The result is valid
// until the next Forward of the model.
func (m *Model) Backward(g *tensor.Dense) *tensor.Dense {
	if !m.forwarded {
		panic("gnn: Model.Backward before Forward: a Backward reads the values of the training Forward just before it")
	}
	m.forwarded = false
	x := handoff{m: tensor.Typed{F64: g}}
	for i := len(m.Layers) - 1; i >= 0; i-- {
		x = m.backwardLayer(i, x)
	}
	return x.dense(true)
}

// Params returns all trainable parameters, layer order preserved. The slice
// is the model's own, collected once and handed out on every call while the
// layers' parameters stay the same, so that a training step (ZeroGrad, the
// optimizer) allocates nothing for it; callers must not modify it.
func (m *Model) Params() []*Param {
	if p := m.params.Load(); p != nil && m.hasParams(*p) {
		return *p
	}
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	ps = ps[:len(ps):len(ps)] // an append by the caller copies
	m.params.Store(&ps)
	return ps
}

// hasParams reports whether ps is, in order, the parameters of the layers.
func (m *Model) hasParams(ps []*Param) bool {
	i := 0
	for _, l := range m.Layers {
		for _, p := range l.Params() {
			if i == len(ps) || ps[i] != p {
				return false
			}
			i++
		}
	}
	return i == len(ps)
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of trainable scalars.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumElements()
	}
	return n
}

// TrainStep runs one full-batch training iteration — forward, loss,
// backward, optimizer step — and returns the loss value.
func (m *Model) TrainStep(h *tensor.Dense, loss Loss, opt Optimizer) float64 {
	m.ZeroGrad()
	out := m.Forward(h, true)
	val, g := loss.Eval(out)
	m.Backward(g)
	opt.Step(m.Params())
	return val
}

// Train runs epochs full-batch training iterations and returns the loss
// trajectory. It refuses untrainable models (see TrainableLayer) with a
// descriptive error instead of panicking mid-epoch, and stops at the first
// non-finite loss (FiniteLoss) with the finite trajectory before it.
func (m *Model) Train(h *tensor.Dense, loss Loss, opt Optimizer, epochs int) ([]float64, error) {
	if err := m.CheckTrainable(); err != nil {
		return nil, err
	}
	hist := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		l := m.TrainStep(h, loss, opt)
		if err := FiniteLoss(e, l); err != nil {
			return hist, err
		}
		hist = append(hist, l)
	}
	return hist, nil
}

// ErrNonFiniteLoss is what a training loop stops with when the loss is NaN
// or infinite: every step after it would train on NaNs.
var ErrNonFiniteLoss = errors.New("gnn: non-finite loss")

// FiniteLoss returns nil for a finite loss and otherwise an error wrapping
// ErrNonFiniteLoss that names the epoch and the value.
func FiniteLoss(epoch int, loss float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("%w %v at epoch %d", ErrNonFiniteLoss, loss, epoch)
	}
	return nil
}

// Summary renders a human-readable table of the model's layers and
// parameter shapes (the quick architecture sanity check every framework
// grows eventually).
func (m *Model) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-16s %-24s %10s\n", "layer", "kind", "parameters", "#scalars")
	total := 0
	for i, l := range m.Layers {
		names := ""
		count := 0
		for _, p := range l.Params() {
			if names != "" {
				names += " "
			}
			names += fmt.Sprintf("%s[%d×%d]", p.Name, p.Value.Rows, p.Value.Cols)
			count += p.NumElements()
		}
		if names == "" {
			names = "—"
		}
		fmt.Fprintf(&b, "%-5d %-16s %-24s %10d\n", i, l.Name(), names, count)
		total += count
	}
	fmt.Fprintf(&b, "total %d trainable scalars\n", total)
	return b.String()
}
