package fuse

import (
	"fmt"
	"math"

	"agnn/internal/tensor"
)

// This file is the test suite's one oracle: a dense evaluator of a Graph.
// It computes what the DAG says in the global tensor algebra of the paper,
// one node after another, with no fusion and on one goroutine. Every node
// is a dense float64 matrix (a vector one column, a virtual or sparse node
// the whole n×n matrix, zero off the pattern once sampled), and every
// trainable op has the dense VJP of docs/DERIVATIONS.md. A score node holds
// n² words, so the graphs it evaluates have at most a few hundred vertices.

// denseEval holds one evaluation: the pattern, A's values and every node's
// value.
type denseEval struct {
	g        *Graph
	pat, adj *tensor.Dense // 1 on A's pattern and A's stored values, 0 off it
	val      map[*Node]*tensor.Dense
	bar      map[*Node]*tensor.Dense
}

// denseOp is an op's dense forward and, where the op trains, its VJP: given
// the node's cotangent zb it adds each input's share through e.acc.
type denseOp struct {
	fwd func(e *denseEval, n *Node, in []*tensor.Dense) *tensor.Dense
	vjp func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense)
}

var denseOps = map[string]denseOp{
	// Virtual scores (Table 2), materialised over all n×n entries.
	"mmt":   outerProduct,
	"outer": outerProduct,
	"sqdist": {
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			x, y := in[0], in[1]
			return fill(x.Rows, y.Rows, func(i, j int) float64 {
				s := 0.0
				for t := range x.Cols {
					d := x.At(i, t) - y.At(j, t)
					s += d * d
				}
				return s
			})
		},
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
			// ∂‖x_i − y_j‖²/∂x_i = 2(x_i − y_j) = −∂/∂y_j.
			x, y := in[0], in[1]
			xb, yb := tensor.NewDense(x.Rows, x.Cols), tensor.NewDense(y.Rows, y.Cols)
			for i := range zb.Rows {
				for j := range zb.Cols {
					for t := range x.Cols {
						d := 2 * zb.At(i, j) * (x.At(i, t) - y.At(j, t))
						xb.Data[i*x.Cols+t] += d
						yb.Data[j*y.Cols+t] -= d
					}
				}
			}
			e.acc(n.Inputs[0], xb)
			e.acc(n.Inputs[1], yb)
		},
	},
	"divide": { // the zero-norm guard: a zero denominator gives 0, and no cotangent
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			return zip(in[0], in[1], func(a, b float64) float64 { return guard(b, a/b) })
		},
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) { // (P5)
			num, den := in[0], in[1]
			e.acc(n.Inputs[0], zip(zb, den, func(g, d float64) float64 { return guard(d, g/d) }))
			e.acc(n.Inputs[1], fill(zb.Rows, zb.Cols, func(i, j int) float64 {
				d := den.At(i, j)
				return guard(d, -zb.At(i, j)*num.At(i, j)/(d*d))
			}))
		},
	},
	"scale": {
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense { return scale(in[0], in[1].Data[0]) },
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
			e.acc(n.Inputs[0], scale(zb, in[1].Data[0]))
			e.acc(n.Inputs[1], scalar(dot(zb, in[0])))
		},
	},
	"rep": { // u·1ᵀ
		fwd: func(e *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			return fill(e.pat.Rows, e.pat.Cols, func(i, _ int) float64 { return in[0].Data[i] })
		},
		vjp: func(e *denseEval, n *Node, _ []*tensor.Dense, zb *tensor.Dense) { // sum(C̄)
			e.acc(n.Inputs[0], mul(zb, ones(zb.Cols), false, false))
		},
	},
	"repT": { // 1·vᵀ
		fwd: func(e *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			return fill(e.pat.Rows, e.pat.Cols, func(_, j int) float64 { return in[0].Data[j] })
		},
		vjp: func(e *denseEval, n *Node, _ []*tensor.Dense, zb *tensor.Dense) { // sumᵀ(C̄)
			e.acc(n.Inputs[0], mul(zb, ones(zb.Rows), true, false))
		},
	},
	"add": {
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense { return add(in[0], in[1]) },
		vjp: func(e *denseEval, n *Node, _ []*tensor.Dense, zb *tensor.Dense) {
			e.acc(n.Inputs[0], zb)
			e.acc(n.Inputs[1], zb)
		},
	},
	"lrelu": {
		fwd: func(e *denseEval, n *Node, in []*tensor.Dense) *tensor.Dense {
			slope := e.g.md(n).slope
			return apply(in[0], func(x float64) float64 { return x * leak(x, slope) })
		},
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
			slope := e.g.md(n).slope
			e.acc(n.Inputs[0], zip(zb, in[0], func(g, x float64) float64 { return g * leak(x, slope) }))
		},
	},

	// Sampling and the graph softmax.
	"mask": { // A ⊙ C weighted, pattern(A) ⊙ C without
		fwd: func(e *denseEval, n *Node, in []*tensor.Dense) *tensor.Dense { return had(in[1], e.weights(n)) },
		vjp: func(e *denseEval, n *Node, _ []*tensor.Dense, zb *tensor.Dense) {
			e.acc(n.Inputs[1], had(zb, e.weights(n)))
		},
	},
	"softmax": { // sm(S) = exp(S) ⊘ rs(exp(S)) over the pattern, less the row max (it cancels)
		fwd: func(e *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			s, out := in[0], tensor.NewDense(in[0].Rows, in[0].Cols)
			for i := range s.Rows {
				m := math.Inf(-1)
				for j := range s.Cols {
					if e.pat.At(i, j) != 0 {
						m = math.Max(m, s.At(i, j))
					}
				}
				sum := 0.0
				for j := range s.Cols {
					if e.pat.At(i, j) != 0 {
						out.Set(i, j, math.Exp(s.At(i, j)-m))
						sum += out.At(i, j)
					}
				}
				for j := range s.Cols {
					out.Set(i, j, guard(sum, out.At(i, j)/sum)) // an empty row stays 0
				}
			}
			return out
		},
		vjp: func(e *denseEval, n *Node, _ []*tensor.Dense, zb *tensor.Dense) { // (P4)
			psi := e.val[n]
			rho := mul(had(zb, psi), ones(psi.Cols), false, false)
			e.acc(n.Inputs[0], fill(psi.Rows, psi.Cols, func(i, j int) float64 {
				return psi.At(i, j) * (zb.At(i, j) - rho.Data[i])
			}))
		},
	},

	// Aggregation: the real product, and ⊕ over the semirings of §4.3.
	"spmm": {
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense { return mul(in[0], in[1], false, false) },
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) { // (P1)
			e.acc(n.Inputs[0], had(mul(zb, in[1], false, true), e.pat))
			e.acc(n.Inputs[1], mul(in[0], zb, true, false))
		},
	},
	"spmm-max":  {fwd: semiring(math.Max, math.Inf(-1))},
	"spmm-min":  {fwd: semiring(math.Min, math.Inf(1))},
	"spmm-mean": {fwd: weightedMean},

	// Dense and vector ops.
	"mm":     product,
	"matvec": product,
	"rownorm": {
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			return apply(mul(had(in[0], in[0]), ones(in[0].Cols), false, false), math.Sqrt)
		},
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) { // ∂n_i/∂X[i,:] = X[i,:]/n_i
			norms := e.val[n]
			e.acc(n.Inputs[0], fill(in[0].Rows, in[0].Cols, func(i, t int) float64 {
				return guard(norms.Data[i], zb.Data[i]/norms.Data[i]*in[0].At(i, t))
			}))
		},
	},
	"sigma": {
		fwd: func(e *denseEval, n *Node, in []*tensor.Dense) *tensor.Dense {
			if act := e.g.md(n).act; !act.isIdentity() {
				return apply(in[0], act.F)
			}
			return in[0]
		},
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
			if act := e.g.md(n).act; !act.isIdentity() {
				zb = had(zb, apply(in[0], act.DF))
			}
			e.acc(n.Inputs[0], zb)
		},
	},
	"gin-combine": { // agg + (1+ε)·H
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			return add(in[0], scale(in[1], 1+in[2].Data[0]))
		},
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
			e.acc(n.Inputs[0], zb)
			e.acc(n.Inputs[1], scale(zb, 1+in[2].Data[0]))
			e.acc(n.Inputs[2], scalar(dot(zb, in[1])))
		},
	},
	"concat": {
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			cols := 0
			for _, x := range in {
				cols += x.Cols
			}
			out := tensor.NewDense(in[0].Rows, cols)
			for i := range out.Rows {
				row := out.Row(i)
				for _, x := range in {
					row = row[copy(row, x.Row(i)):]
				}
			}
			return out
		},
		vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
			off := 0
			for q, x := range in {
				e.acc(n.Inputs[q], fill(x.Rows, x.Cols, func(i, t int) float64 { return zb.At(i, off+t) }))
				off += x.Cols
			}
		},
	},
	"mean": {
		fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
			sum := tensor.NewDense(in[0].Rows, in[0].Cols)
			for _, x := range in {
				sum = add(sum, x)
			}
			return scale(sum, 1/float64(len(in)))
		},
		vjp: func(e *denseEval, n *Node, _ []*tensor.Dense, zb *tensor.Dense) {
			for _, x := range n.Inputs {
				e.acc(x, scale(zb, 1/float64(len(n.Inputs))))
			}
		},
	},
}

// product is X·W: mm, and matvec, whose W is a k×1 vector (P2).
var product = denseOp{
	fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense { return mul(in[0], in[1], false, false) },
	vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
		e.acc(n.Inputs[0], mul(zb, in[1], false, true))
		e.acc(n.Inputs[1], mul(in[0], zb, true, false))
	},
}

// outerProduct is the virtual X·Yᵀ: mmt, and outer, whose X and Y are
// vectors (P3 before the mask).
var outerProduct = denseOp{
	fwd: func(_ *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense { return mul(in[0], in[1], false, true) },
	vjp: func(e *denseEval, n *Node, in []*tensor.Dense, zb *tensor.Dense) {
		e.acc(n.Inputs[0], mul(zb, in[1], false, false))
		e.acc(n.Inputs[1], mul(zb, in[0], true, false))
	},
}

// semiring is the ⊕ of the tropical semirings: pick folded over each row's
// pattern in column order from its identity, every edge's ⊗ adding the unit
// 0 to the feature. An empty row keeps the identity.
func semiring(pick func(a, b float64) float64, identity float64) func(*denseEval, *Node, []*tensor.Dense) *tensor.Dense {
	return func(e *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
		x := in[1]
		return fill(e.pat.Rows, x.Cols, func(i, c int) float64 {
			acc := identity
			for j := range e.pat.Cols {
				if e.pat.At(i, j) != 0 {
					acc = pick(acc, 0+x.At(j, c))
				}
			}
			return acc
		})
	}
}

// weightedMean is the averaging semiring's product: Σ_j s_ij·x_j / Σ_j s_ij
// over the pattern, 0 where the weights sum to 0 (an empty row included).
func weightedMean(e *denseEval, _ *Node, in []*tensor.Dense) *tensor.Dense {
	s, x := in[0], in[1]
	w, sx := mul(s, ones(s.Cols), false, false), mul(s, x, false, false)
	return fill(sx.Rows, sx.Cols, func(i, c int) float64 { return guard(w.Data[i], sx.At(i, c)/w.Data[i]) })
}

// evalDense evaluates g over h; with gOut, it also runs every VJP in reverse
// DAG order from that output cotangent.
func evalDense(g *Graph, h, gOut *tensor.Dense) *denseEval {
	if g.grid != nil || g.from != nil {
		panic(fmt.Sprintf("fuse: the dense evaluator runs single-node graphs from their input; %q is not one", g.Name))
	}
	e := &denseEval{g: g, pat: tensor.NewDense(g.pat.Rows, g.pat.Cols), adj: tensor.NewDense(g.pat.Rows, g.pat.Cols),
		val: make(map[*Node]*tensor.Dense), bar: make(map[*Node]*tensor.Dense)}
	for i := range g.pat.Rows {
		for p := g.pat.RowPtr[i]; p < g.pat.RowPtr[i+1]; p++ {
			e.pat.Set(i, int(g.pat.Col[p]), 1)
			e.adj.Set(i, int(g.pat.Col[p]), g.pat.ValueAt(p))
		}
	}
	nodes := g.dag.Nodes()
	for _, n := range nodes {
		switch {
		case n == g.adj:
			e.val[n] = e.adj
		case n == g.input:
			e.val[n] = h
		case n.Kind == Param:
			e.val[n] = g.md(n).param.Value
		default:
			op, ok := denseOps[n.Op]
			if !ok {
				panic(fmt.Sprintf("fuse: the dense evaluator has no op %q (node %q)", n.Op, n.ID))
			}
			e.val[n] = op.fwd(e, n, e.inputs(n))
		}
	}
	if gOut == nil {
		return e
	}
	e.bar[g.output] = gOut
	for q := len(nodes) - 1; q >= 0; q-- {
		n := nodes[q]
		zb := e.bar[n]
		if zb == nil || n.Op == "input" {
			continue
		}
		vjp := denseOps[n.Op].vjp
		if vjp == nil {
			panic(fmt.Sprintf("fuse: op %q (node %q) has no VJP", n.Op, n.ID))
		}
		vjp(e, n, e.inputs(n), zb)
	}
	return e
}

func (e *denseEval) inputs(n *Node) []*tensor.Dense {
	in := make([]*tensor.Dense, len(n.Inputs))
	for q, x := range n.Inputs {
		in[q] = e.val[x]
	}
	return in
}

// acc adds d to n's cotangent.
func (e *denseEval) acc(n *Node, d *tensor.Dense) {
	if b := e.bar[n]; b != nil {
		e.bar[n] = add(b, d)
		return
	}
	e.bar[n] = d
}

// weights is what a mask multiplies its scores by: A's values when it is
// weighted, its pattern when not.
func (e *denseEval) weights(n *Node) *tensor.Dense {
	if e.g.md(n).weighted {
		return e.adj
	}
	return e.pat
}

// mul returns op(a)·op(b), op transposing its operand where ta / tb say,
// each entry summed in index order.
func mul(a, b *tensor.Dense, ta, tb bool) *tensor.Dense {
	get := func(m *tensor.Dense, t bool, i, j int) float64 {
		if t {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	rows, inner, cols := a.Rows, a.Cols, b.Cols
	if ta {
		rows, inner = a.Cols, a.Rows
	}
	if tb {
		cols = b.Rows
	}
	return fill(rows, cols, func(i, j int) float64 {
		s := 0.0
		for t := range inner {
			s += get(a, ta, i, t) * get(b, tb, t, j)
		}
		return s
	})
}

func fill(rows, cols int, f func(i, j int) float64) *tensor.Dense {
	out := tensor.NewDense(rows, cols)
	for i := range rows {
		for j := range cols {
			out.Data[i*cols+j] = f(i, j)
		}
	}
	return out
}

func zip(a, b *tensor.Dense, f func(x, y float64) float64) *tensor.Dense {
	return fill(a.Rows, a.Cols, func(i, j int) float64 { return f(a.At(i, j), b.At(i, j)) })
}

func apply(m *tensor.Dense, f func(float64) float64) *tensor.Dense {
	return fill(m.Rows, m.Cols, func(i, j int) float64 { return f(m.At(i, j)) })
}

func add(a, b *tensor.Dense) *tensor.Dense {
	return zip(a, b, func(x, y float64) float64 { return x + y })
}

func had(a, b *tensor.Dense) *tensor.Dense {
	return zip(a, b, func(x, y float64) float64 { return x * y })
}

func scale(m *tensor.Dense, c float64) *tensor.Dense {
	return apply(m, func(x float64) float64 { return c * x })
}

// dot is Σ a ⊙ b, summed in row-major order.
func dot(a, b *tensor.Dense) float64 {
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

func ones(n int) *tensor.Dense { return fill(n, 1, func(int, int) float64 { return 1 }) }

func scalar(v float64) *tensor.Dense { return tensor.NewDenseFrom(1, 1, []float64{v}) }

// guard is v, or 0 where the denominator d it divided by is 0.
func guard(d, v float64) float64 {
	if d == 0 {
		return 0
	}
	return v
}

// leak is LeakyReLU's slope at x: 1, or slope below 0.
func leak(x, slope float64) float64 {
	if x < 0 {
		return slope
	}
	return 1
}
