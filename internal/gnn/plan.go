package gnn

import (
	"fmt"
	"strings"

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

// DAGLayer is a layer defined by its tensor-op DAG. The per-rank row engine
// lowers the same definition onto its own graph (row offset, global-height
// input), which is why DAG and Signature are exported; the unexported
// methods tie the interface to layers embedding this package's plan-backed
// core.
type DAGLayer interface {
	Layer
	// DAG appends the layer's nodes to g, reading the features from the
	// dense input node h, and marks the output node. Node names and
	// construction order are part of the compiled plan's identity.
	DAG(g *fuse.Graph, h *fuse.Node)
	// Signature renders the plan-cache signature of the layer's plan in
	// the given mode: layer kind, structural options, and the identities
	// of the parameters the plan closes over.
	Signature(train bool) string

	core() *planned
	// rebound returns a copy of the layer — same parameters and options —
	// bound to adjacency a, holding no plan leases.
	rebound(a *sparse.CSR) DAGLayer
}

// planned is the plan-backed core every DAG layer embeds: the adjacency
// binding, the plan element width, and one leased plan per mode. It
// implements Forward, Backward, Plan and the lease lifecycle for all of
// them.
type planned struct {
	// A is the adjacency the layer is bound to, with the model's
	// preprocessing (self loops, GCN normalization) already applied.
	A *sparse.CSR
	// DType selects the element width the layer's compiled plans run at.
	// F64 (the zero value) is the default double-precision path; F32
	// compiles mixed-precision plans (f64 master weights, f32 kernels).
	DType tensor.DType
	// Grid, when set, makes A this rank's stationary block of a square
	// process grid: the layer's plans are lowered with the grid's collectives
	// (fuse/grid.go), Forward and Backward take and return the diagonal
	// rank's feature block, and nil on the other ranks.
	Grid fuse.Grid
	in   int // input width, for the grid ranks that are handed no features to read it from

	def          DAGLayer // the layer embedding this core
	train, infer planLease
}

// bind (re)initializes the core for layer def on adjacency a, keeping the
// dtype and the grid. It drops — without releasing — whatever leases the
// struct held, so it is also what detaches a copied layer from its source's
// plans.
func (p *planned) bind(a *sparse.CSR, def DAGLayer) {
	*p = planned{A: a, DType: p.DType, Grid: p.Grid, in: p.in, def: def}
}

func (p *planned) core() *planned { return p }

// Forward implements Layer for every DAG layer: training mode executes the
// training plan (which caches what Backward needs), inference mode the
// inference plan. It is the typed forward, then widen.
func (p *planned) Forward(h *tensor.Dense, training bool) *tensor.Dense {
	return p.forward(tensor.Typed{F64: h}, training).dense(false)
}

// Backward implements Layer through the training plan's reverse-derived op
// list.
func (p *planned) Backward(gOut *tensor.Dense) *tensor.Dense {
	return p.backward(tensor.Typed{F64: gOut}).dense(true)
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
	pl := p.plan(in, training)
	return handoff{m: pl.ForwardTyped(h), from: pl}
}

func (p *planned) backward(g tensor.Typed) handoff {
	pl := p.train.plan
	if pl == nil {
		panic("gnn: " + p.def.Name() + " layer: Backward before training-mode Forward")
	}
	return handoff{m: pl.BackwardTyped(g), from: pl}
}

// Plan returns the compiled training plan, or nil before the first
// training-mode Forward. Cost-model and observability consumers read its
// Stats.
func (p *planned) Plan() *fuse.Plan { return p.train.plan }

func (p *planned) releasePlans() { p.train.release(); p.infer.release() }

// plan resolves the layer's compiled plan for one mode through the
// process-wide fuse.Shared cache. The steady-state path is a pointer
// comparison: as long as the layer keeps seeing the same adjacency pointer,
// input width and dtype, the leased plan is returned with zero allocations
// and zero hashing. Only a rebind or a width change goes to the shared
// cache, where the adjacency's content fingerprint × input width × layer
// signature either finds an already compiled plan (mini-batch rotation,
// serving fan-out) or compiles one into the cache.
//
// The signature is computed once per layer instance and mode (layer kind,
// structural options and parameter identities are fixed after construction)
// and memoized.
func (p *planned) plan(in int, train bool) *fuse.Plan {
	c := &p.infer
	if train {
		c = &p.train
	}
	if c.plan != nil && c.a == p.A && c.in == in && c.dt == p.DType {
		return c.plan
	}
	if c.sig == "" {
		c.sig = p.def.Signature(train)
		if p.Grid != nil {
			// The plan closes over this rank's communicators.
			c.sig += fmt.Sprintf("|grid=%p", p.Grid)
		}
	}
	c.release()
	c.lease = fuse.Shared.Get(fuse.KeyFor(p.A, in, p.DType, c.sig), func(ws *tensor.Arena) *fuse.Plan {
		name := p.def.Name()
		g := fuse.NewGraph(name, p.A)
		g.SetGrid(p.Grid)
		p.def.DAG(g, g.InputDense("H", p.A.Cols, in))
		return g.MustCompile(fuse.Options{Train: train, SpanPrefix: name + ".", Workspace: ws, DType: p.DType})
	})
	c.plan = c.lease.Plan()
	c.a, c.in, c.dt = p.A, in, p.DType
	return c.plan
}

// planLease is one mode's leased plan together with what it was leased for.
type planLease struct {
	lease fuse.Lease
	plan  *fuse.Plan
	a     *sparse.CSR
	in    int
	dt    tensor.DType
	sig   string
}

// release returns the leased plan to the shared cache. The memoized
// signature stays; the next Forward re-leases (a cache hit when the same
// structure comes around again).
func (c *planLease) release() {
	if c.plan == nil {
		return
	}
	c.lease.Release()
	c.plan = nil
	c.a = nil
	c.in = 0
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

// planSig renders a layer signature: the layer kind, its structural
// options, and the identities of the parameter buffers the plan closes over.
// Buffer identity (pointer, not value) is what keeps two models with
// identical shapes from sharing plans — a compiled plan reads and writes
// the specific Value/Grad buffers it captured (planRef). The key names those
// buffers, not the Param holding them: an idle plan in the cache keeps its
// buffers alive, so their addresses cannot be reused by another model while
// the key exists, where a Param's could once the Param is collected.
func planSig(l Layer, train bool, act Activation, extra string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|train=%t|act=%s", l.Name(), train, planAct(act).Name)
	if extra != "" {
		b.WriteByte('|')
		b.WriteString(extra)
	}
	for _, p := range l.Params() {
		fmt.Fprintf(&b, "|%p,%p", p.Value, p.Grad)
	}
	return b.String()
}

// PlannedForward is Forward(h, false): inference has one path.
//
// Deprecated: it exists only because the frozen bench/surface.go calls it.
func (m *Model) PlannedForward(h *tensor.Dense) *tensor.Dense {
	return m.Forward(h, false)
}

// ReleasePlans returns every layer's leased plan to the shared cache. Call
// it when a model (or a rebound mini-batch view of one) is done executing
// for now: released plans stay compiled in the cache, so the next model
// that binds the same adjacency structure — including this one — reuses
// them without recompiling.
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
