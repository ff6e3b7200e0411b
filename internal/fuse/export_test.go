package fuse

// BackwardOps lists a training plan's backward op list in execution order,
// each op as "<span> <op>" (e.g. "va.HHt.bwd mmt").
func BackwardOps(p *Plan) []string {
	ops := make([]string, len(p.bwd))
	for i, op := range p.bwd {
		ops[i] = op.span + " " + op.op
	}
	return ops
}
