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
	p, err := lower(g, Options{DType: dt}, g.dag.consumers(), c)
	if err != nil {
		panic(err)
	}
	p.ForwardTyped(h)
	return frontier, p.x.values()[1:]
}
