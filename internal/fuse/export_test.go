package fuse

import (
	"slices"

	"agnn/internal/tensor"
)

// BackwardOps lists a training plan's backward op list in execution order,
// each op as "<span> <op>" (e.g. "va.HHt.bwd mmt").
func BackwardOps(p *Plan) []string {
	ops := make([]string, len(p.bwd))
	for i, op := range p.bwd {
		ops[i] = op.span + " " + op.op
	}
	return ops
}

// QueryFrontierValues runs the inference plan Compile builds for g over h and
// returns the frontier (Graph.Frontier) with the values that plan computed
// for it, read out of its buffers after the whole forward sweep.
func QueryFrontierValues(g *Graph, h tensor.Typed, dt tensor.DType) ([]*Node, []tensor.Typed) {
	p := QueryPlan(g, dt)
	p.ForwardTyped(h)
	return g.Frontier(), p.x.values()[1:]
}

// QueryPlan compiles the plan QueryFrontierValues runs: the inference plan
// for g, which hands the frontier's values on typed beside its output.
func QueryPlan(g *Graph, dt tensor.DType) *Plan {
	c := g.cut()
	c.outs = append(c.outs, g.Frontier()...)
	p, err := lower(g, Options{DType: dt}, g.dag.consumers(), c, tensor.NewArena())
	if err != nil {
		panic(err)
	}
	return p
}

// Buffer is one buffer of a step's planned workspace: the plan it belongs
// to and that plan's place in the step, its size, the positions of the step
// it is live over — every plan's forward ops and the widening of its output,
// then every plan's seed, backward ops and the widening of its input
// cotangent in reverse — the first and the last position of its plan
// touching it, its plan's seed (-1: an inference plan), its first word in the
// step's slab (-1: it has no bytes), which of its plan's results it is
// ("out": the output, a cut's out or the output's float64 copy; "gin": the
// input cotangent or its copy; "" otherwise), the last position of its plan
// and — where the step overlays it on a buffer born where it dies, its
// float64 copy, whose widen is its last reader, or the cotangent σ's VJP
// writes over it — the name of that buffer and its plan's place in the step.
type Buffer struct {
	Plan, Name  string
	Index       int
	Bytes       int64
	First, Last int
	Touch       [2]int
	Seed        int
	Off         int
	Hands       string
	End         int
	Inside      string
	InsideAt    int
}

// Words returns the buffer's length in the slab.
func (b Buffer) Words() int { return int(b.Bytes+7) / 8 }

// Shares reports whether b and o are placed over a common word of the slab.
func (b Buffer) Shares(o Buffer) bool {
	return b.Off >= 0 && o.Off >= 0 && b.Off < o.Off+o.Words() && o.Off < b.Off+b.Words()
}

// KeepBuffers makes the plans compiled until restore is called keep what
// Buffers lists.
func KeepBuffers() (restore func()) {
	keepLifetimes = true
	return func() { keepLifetimes = false }
}

// Buffers lists the planned buffers of the step of a plan compiled under
// KeepBuffers, as the step's last layout placed them.
func Buffers(p *Plan) []Buffer {
	out := make([]Buffer, len(p.step.lifetimes))
	for i, b := range p.step.lifetimes {
		out[i] = Buffer{Plan: b.plan, Name: b.name, Index: b.index, Bytes: b.bytes, First: b.first, Last: b.last, Touch: b.touch,
			Seed: b.seed, Off: b.off, Hands: b.hands, End: b.end, Inside: b.inside, InsideAt: b.insideAt}
	}
	return out
}

// Spread widens src into dst as an overlaid pair's widen does: top-down, in
// place where src lies on dst's first words. It reuses its loop body from one
// call to the next.
func Spread(dst []float64, src []float32) { spreadF32.run(dst, src) }

var spreadF32 spread[float32]

// LayOut lays out the step of p, as its first run would.
func LayOut(p *Plan) { p.ready() }

// StepPlans lists the plans of p's step, in order.
func StepPlans(p *Plan) []*Plan { return p.step.plans }

// PoisonDead makes the plans compiled until restore is called give every
// buffer storage of its own and fill each buffer with NaN wherever the step
// is outside its interval.
func PoisonDead() (restore func()) {
	poisonDead = true
	return func() { poisonDead = false }
}

// UseArena makes the plans compiled until restore is called draw their
// storage from ws instead of the process-wide arena.
func UseArena(ws *tensor.Arena) (restore func()) {
	old := workspace
	workspace = ws
	return func() { workspace = old }
}

// DenseEval is what the dense evaluator (dense_test.go) computes for a
// graph: its output and, from an output cotangent, the input cotangent and
// the gradient of every parameter, one entry per ParamRef.Grad in the order
// the graph declares them (a parameter declared twice sums its two).
type DenseEval struct {
	Out, DH *tensor.Dense
	Params  []ParamRef
	Grads   []*tensor.Dense
}

// EvalDense evaluates g densely over h and, with a non-nil gOut, runs every
// VJP back from that output cotangent.
func EvalDense(g *Graph, h, gOut *tensor.Dense) DenseEval {
	e := evalDense(g, h, gOut)
	r := DenseEval{Out: e.val[g.output]}
	if gOut == nil {
		return r
	}
	orZero := func(n *Node) *tensor.Dense {
		if b := e.bar[n]; b != nil {
			return b
		}
		v := e.val[n]
		return tensor.NewDense(v.Rows, v.Cols)
	}
	r.DH = orZero(g.input)
	for _, n := range g.dag.Nodes() {
		if n.Kind != Param {
			continue
		}
		p := g.md(n).param
		if i := slices.IndexFunc(r.Params, func(q ParamRef) bool { return q.Grad == p.Grad }); i >= 0 {
			r.Grads[i] = add(r.Grads[i], orZero(n))
			continue
		}
		r.Params = append(r.Params, p)
		r.Grads = append(r.Grads, orZero(n))
	}
	return r
}

// DenseVJPOps lists, sorted, the ops the dense evaluator has a VJP for.
func DenseVJPOps() []string {
	var ops []string
	for op, d := range denseOps {
		if d.vjp != nil {
			ops = append(ops, op)
		}
	}
	slices.Sort(ops)
	return ops
}
