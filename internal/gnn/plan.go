package gnn

import (
	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// A layer is its DAG. Every layer but dropout — multi-head GAT and every
// GenericLayer, custom pieces included — describes its tensor ops once, by
// appending nodes to a fuse.Graph; the plan-backed core in this file is the
// only executor. Compile applies the Section 6.2 fusion rule, preallocates every
// intermediate from a shape-keyed arena, and — for training plans — derives
// the backward pass by reverse traversal. Both modes execute compiled op
// lists with zero steady-state allocations: training-mode Forward/Backward
// run the training plan, inference-mode Forward runs the plan compiled from
// the same DAG without a backward (the attention chain collapses into one
// fused sweep that never materializes the per-edge score tensor).

// DAGLayer is a layer defined by its tensor-op DAG. DAG is exported so that
// a caller — the tests' dense evaluator among them — can build the
// definition onto a graph of its own; the unexported methods tie the
// interface to layers embedding this package's plan-backed core.
type DAGLayer interface {
	Layer
	// DAG appends the layer's nodes to g, reading the features from the
	// dense input node h, and marks the output node. Node names and
	// construction order are part of the compiled plan's identity.
	DAG(g *fuse.Graph, h *fuse.Node)

	core() *planned
	// rebound returns a copy of the layer — same parameters and options —
	// bound to adjacency a, holding no plans.
	rebound(a *sparse.CSR) DAGLayer
}

// planned is the plan-backed core every DAG layer embeds: the adjacency
// binding, the plan element width, and the layer's own plan per mode. It
// implements Forward, Backward, Plan and the plans' lifecycle for all of
// them.
type planned struct {
	// A is the adjacency the layer is bound to, with the model's
	// preprocessing (self loops, GCN normalization) already applied.
	A *sparse.CSR
	// DType selects the element width the layer's compiled plans run at.
	// F64 (the zero value) is the default double-precision path; F32
	// compiles mixed-precision plans (f64 master weights, f32 kernels).
	DType tensor.DType
	// Grid, when set, makes A this rank's stationary block of a process grid
	// (√p×√p, or p×1): the layer's plans are lowered with the grid's collectives
	// (fuse/grid.go), Forward and Backward take and return the diagonal
	// rank's feature block, and nil on the other ranks.
	Grid fuse.Grid
	in   int // input width, for the grid ranks that are handed no features to read it from

	def          DAGLayer // the layer embedding this core
	params       []*Param // set by the layer's constructor, in the layer's order
	train, infer layerPlan
}

// bind (re)initializes the core for layer def on adjacency a, keeping the
// dtype and the grid. It drops — without releasing — whatever plans the
// struct held, so it is also what detaches a copied layer from its source's
// plans.
func (p *planned) bind(a *sparse.CSR, def DAGLayer) {
	*p = planned{A: a, DType: p.DType, Grid: p.Grid, in: p.in, def: def, params: p.params}
}

// Params implements Layer for every DAG layer: the parameters the layer was
// built with. The slice is the layer's own; callers must not modify it.
func (p *planned) Params() []*Param { return p.params }

func (p *planned) core() *planned { return p }

// Forward implements Layer for every DAG layer: training mode executes the
// training plan (which caches what Backward needs), inference mode the
// inference plan, on and to float64 matrices (fuse.Plan.Forward).
func (p *planned) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	in := p.in
	if h != nil {
		in = h.Cols
	}
	return p.plan(in, training, nil).Forward(h)
}

// Backward implements Layer through the training plan's reverse-derived op
// list (fuse.Plan.Backward).
func (p *planned) Backward(gOut *tensor.Dense) *tensor.Dense {
	return p.trainPlan().Backward(gOut)
}

// handoff is what one layer of a model passes to the next: a matrix at the
// width of the plan that produced it and that plan, which owns the float64
// buffer the matrix is widened into should the next layer — or the caller —
// want one. from is nil beside a float64 matrix that is the caller's, or a
// layer's without a plan.
type handoff struct {
	m    tensor.Typed
	from *fuse.Plan
}

// dense returns the matrix as float64: from's forward result or, back, its
// input cotangent.
func (x handoff) dense(back bool) *tensor.Dense {
	switch {
	case x.m.F32 == nil:
		return x.m.F64
	case back:
		return x.from.InputGrad()
	}
	return x.from.Output()
}

// fits reports whether a plan at dt binds the matrix as it is: any plan takes
// a float64 one, a float32 one goes to float32 plans.
func (x handoff) fits(dt tensor.DType) bool { return x.m.F32 == nil || dt == tensor.F32 }

// forward and backward are Forward and Backward on the activation a Model
// hands from layer to layer.
func (p *planned) forward(h tensor.Typed, training bool) handoff {
	in := p.in
	if _, cols, ok := h.Dims(); ok {
		in = cols
	}
	pl := p.plan(in, training, nil)
	return handoff{m: pl.ForwardTyped(h), from: pl}
}

// forwardFrom is the inference forward from pre's tables, with rows as
// Model.ForwardFrom takes them.
func (p *planned) forwardFrom(pre *Prefix, rows []tensor.Typed) handoff {
	pl := p.plan(pre.in, false, pre)
	rows = append(pre.Tables[:len(pre.Tables):len(pre.Tables)], rows...)
	return handoff{m: pl.ForwardFrom(rows), from: pl}
}

func (p *planned) backward(g tensor.Typed) handoff {
	pl := p.trainPlan()
	return handoff{m: pl.BackwardTyped(g), from: pl}
}

func (p *planned) trainPlan() *fuse.Plan {
	if p.train.plan == nil {
		panic("gnn: " + p.def.Name() + " layer: Backward before training-mode Forward")
	}
	return p.train.plan
}

// Plan returns the compiled training plan, or nil before the first
// training-mode Forward. Cost-model and observability consumers read its
// Stats.
func (p *planned) Plan() *fuse.Plan { return p.train.plan }

// Plans returns the layer's training and inference plans, nil where the
// layer has compiled none since it was built or its plans were released.
func (p *planned) Plans() (train, infer *fuse.Plan) { return p.train.plan, p.infer.plan }

func (p *planned) releasePlans() { p.train.release(); p.infer.release() }

// plan returns the layer's compiled plan for one mode, bound to the layer's
// current adjacency. The plan is the layer's own: compiled once for the
// input width, dtype and prefix frontier it is asked for, and bound to each
// new adjacency the layer is given (fuse.Plan.Bind) — a mini-batch, a query's
// message-flow block. The steady-state path is a pointer comparison. Only a
// new width, dtype or frontier compiles again, and so does an adjacency the
// compiled structure does not fit (Bind's refusal). A plan from a prefix's
// tables (pre non-nil, on a block) is the DAG compiled FromTables over the
// frontier nodes.
func (p *planned) plan(in int, train bool, pre *Prefix) *fuse.Plan {
	c := p.mode(train)
	if c.plan != nil && c.in == in && c.dt == p.DType && c.pre == pre && c.plan.Bind(p.A) {
		return c.plan
	}
	c.release()
	name := p.def.Name()
	g := fuse.NewGraph(name, p.A)
	g.SetGrid(p.Grid)
	rows := p.A.Cols // the input is the pattern's column side, a grid block's its row side
	if p.Grid != nil {
		rows = p.A.Rows
	}
	p.def.DAG(g, g.InputDense("H", rows, in))
	if pre != nil {
		g.FromTables(pre.Frontier)
	}
	*c = layerPlan{plan: g.MustCompile(fuse.Options{Train: train, SpanPrefix: name + ".", DType: p.DType}),
		in: in, dt: p.DType, pre: pre}
	return c.plan
}

// mode returns the layer's plan for one mode, with what it was compiled for.
func (p *planned) mode(train bool) *layerPlan {
	if train {
		return &p.train
	}
	return &p.infer
}

// layerPlan is one mode's plan together with what it was compiled for.
type layerPlan struct {
	plan *fuse.Plan
	in   int
	dt   tensor.DType
	pre  *Prefix // the plan starts from its frontier; nil: from the input
}

// release returns the plan's storage to the workspace arena; the next
// Forward compiles.
func (c *layerPlan) release() {
	if c.plan != nil {
		c.plan.Release()
	}
	*c = layerPlan{}
}

// planRef adapts a Param to the fuse runtime's package-neutral handle. The
// plan reads Value on every step (optimizer updates are mutations of the
// shared buffer, so they are observed) and accumulates into Grad.
func planRef(p *Param) fuse.ParamRef {
	return fuse.ParamRef{Name: p.Name, Value: p.Value, Grad: p.Grad}
}

// Node declares p as a parameter leaf of g under its own name — how a
// GenericLayer fragment reads a parameter it listed in its piece's Params.
func (p *Param) Node(g *fuse.Graph) *fuse.Node { return g.ParamNode(p.Name, planRef(p)) }

// planAct adapts an Activation; a zero Activation defaults to identity.
func planAct(a Activation) fuse.Act {
	if a.F == nil {
		a = Identity()
	}
	return fuse.Act{Name: a.Name, F: a.F, DF: a.DF}
}

// aggregateProject builds Z = Ψ·H·W for the layers whose scores are H·Hᵀ (VA,
// AGNN), in the cheaper of the two orders the SpMMM leaves open. (Ψ·H)·W
// aggregates the very rows of H whose dot products the scores just took: one
// row fetch per edge, the second read a cache hit, and on a process grid the
// column broadcast of H the scores need anyway is the one Ψ aggregates.
// Ψ·(H·W) fetches a second, different row per edge and broadcasts H·W as well,
// but adds out-wide rows where the first order adds in-wide ones — which
// wins once W narrows (BenchmarkProjectOrder in internal/fuse; EXPERIMENTS.md
// "One row fetch per edge": a tie at 64→32, 14 % at 128→16). The order is a
// function of W's shape and nothing else.
func aggregateProject(g *fuse.Graph, psi, h *fuse.Node, w *Param) *fuse.Node {
	wn := g.ParamNode("W", planRef(w))
	if w.Value.Cols < w.Value.Rows {
		return g.SpMM("Z", psi, g.MM("HW", h, wn))
	}
	return g.MM("Z", g.SpMM("PsiH", psi, h), wn)
}

// PlannedForward is Forward(h, false): inference has one path.
//
// Deprecated: it exists only because the frozen bench/surface.go calls it.
func (m *Model) PlannedForward(h *tensor.Dense) *tensor.Dense {
	return m.Forward(h, false)
}

// ReleasePlans drops every layer's plans and returns their storage to the
// workspace arena, where the next compile — this model's next Forward, or
// another model's — finds it. Call it when a model (or a view of one) is done
// executing for now.
func (m *Model) ReleasePlans() {
	for _, l := range m.Layers {
		if dl, ok := l.(DAGLayer); ok {
			dl.core().releasePlans()
		}
	}
}

// SetPlanInference does nothing: inference-mode Forward always executes
// compiled inference plans.
//
// Deprecated: it exists only because the frozen bench/surface.go calls it.
func (m *Model) SetPlanInference(bool) {}
