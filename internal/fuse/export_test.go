package fuse

import "agnn/internal/tensor"

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
	frontier := g.Frontier()
	c := g.cut()
	c.outs = append(c.outs, frontier...)
	p, err := lower(g, Options{DType: dt}, g.dag.consumers(), c, tensor.NewArena())
	if err != nil {
		panic(err)
	}
	p.ForwardTyped(h)
	return frontier, p.x.values()[1:]
}

// Buffer is one buffer of a plan's planned workspace: its size, the positions
// of the step it is live over — forward ops from 0, then the seed, then the
// backward ops — the slot it shares storage in, and whether the step hands it
// to the caller (the output, the input cotangent).
type Buffer struct {
	Name        string
	Words       int64
	First, Last int
	Slot        int
	Keep        bool
}

// KeepBuffers makes the plans compiled until restore is called keep what
// Buffers lists.
func KeepBuffers() (restore func()) {
	keepLifetimes = true
	return func() { keepLifetimes = false }
}

// Buffers lists the planned buffers of a plan compiled under KeepBuffers.
func Buffers(p *Plan) []Buffer {
	out := make([]Buffer, len(p.lifetimes))
	for i, b := range p.lifetimes {
		out[i] = Buffer{Name: b.name, Words: b.words, First: b.first, Last: b.last, Slot: b.slot, Keep: b.keep}
	}
	return out
}

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
