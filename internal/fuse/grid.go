package fuse

import (
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The 1.5D A-stationary distribution of Section 7.1, as a lowering rule over
// the same DAG. On a √p×√p process grid rank (i, j) keeps the block A_ij —
// and with it block (i, j) of every sparse and virtual node — for the whole
// run; dense and vector nodes live on the diagonal rank (i, i), the owner of
// feature block i. A value crosses between the two in three ways, each
// lowered by the builder (graph.go) to a collective node:
//
//   - into the pattern, row side (X of X·Yᵀ, a of a·bᵀ, u of u·1ᵀ):
//     "bcast-row" — every rank (i, *) receives block i;
//   - into the pattern, column side (Y, b, v of 1·vᵀ, the X of S·X):
//     "bcast-col" — every rank (*, j) receives block j;
//   - out of the pattern (the per-block partial of S·X):
//     "reduce-row-to-diag" — the partials of row i are summed onto (i, i).
//
// The row softmax spans a grid row, so it and its VJP exchange their length-B
// row statistics (max, exp-sum; ρ) with a row allreduce between their local
// sweeps. Autodiff needs nothing more: the VJP of a broadcast is the
// reduce-to-diagonal of its cotangent along the same axis and vice versa —
// which is where "reduce-col-to-diag", the Aᵀ of Section 5.2, comes from.
// Off-diagonal ranks compile the same DAG without the diagonal's nodes.

// Axis is a direction of the process grid.
type Axis int

const (
	AlongRow Axis = iota // among the ranks (i, *) of this rank's grid row
	AlongCol             // among the ranks (*, j) of this rank's grid column
)

// Grid is the communication a plan performs when its pattern is one
// stationary block of a square process grid; a Graph without one is a single
// node. Every method is a collective of the ranks along one axis, over
// float64 words, in place. SPMD: all ranks compile the same DAG and so issue
// the same calls in the same order.
type Grid interface {
	// Diag reports whether this rank is (i, i), the owner of dense block i.
	Diag() bool
	// Bcast overwrites buf on every rank along ax with the diagonal rank's.
	Bcast(ax Axis, buf []float64)
	// ReduceToDiag sums the ranks' bufs along ax into the diagonal rank's;
	// the other ranks' contents are unspecified afterwards.
	ReduceToDiag(ax Axis, buf []float64)
	// AllreduceRow leaves the element-wise sum (or maximum) over the grid
	// row in every rank's buf.
	AllreduceRow(buf []float64, max bool)
}

// SetGrid declares the pattern to be this rank's block of grid (nil: none).
// Call it before adding nodes: the builder lowers crossings as it goes.
func (g *Graph) SetGrid(grid Grid) {
	g.grid = grid
	g.crossed = make(map[crossing]*Node)
}

type crossing struct {
	x  *Node
	ax Axis
}

// The four collective op kinds, and the suffix of a broadcast copy's id.
var (
	axisName  = [...]string{AlongRow: "row", AlongCol: "col"}
	bcastOps  = [...]string{AlongRow: "bcast-row", AlongCol: "bcast-col"}
	reduceOps = [...]string{AlongRow: "reduce-row-to-diag", AlongCol: "reduce-col-to-diag"}
)

// collective decodes a collective node's op.
func collective(op string) (ax Axis, bcast, ok bool) {
	for ax := range axisName {
		switch op {
		case bcastOps[ax]:
			return Axis(ax), true, true
		case reduceOps[ax]:
			return Axis(ax), false, true
		}
	}
	return 0, false, false
}

// cross returns x as the pattern sees it along ax: x itself on a single node
// (and for parameters, which are replicated), otherwise the broadcast of the
// diagonal rank's x, lowered once per axis however many operands read it.
func (g *Graph) cross(x *Node, ax Axis) *Node {
	if g.grid == nil || x.Kind == Param {
		return x
	}
	if n, ok := g.crossed[crossing{x, ax}]; ok {
		return n
	}
	xs := g.md(x)
	n := g.add(x.ID+"."+axisName[ax], bcastOps[ax], x.Kind, &meta{rows: xs.rows, cols: xs.cols}, x)
	g.crossed[crossing{x, ax}] = n
	return n
}

// onDiagonal reports whether a node exists on the diagonal rank only: the
// dense and vector nodes, except the broadcast copies and the per-block
// partial sums, which are on the pattern's side of the crossing.
func onDiagonal(n *Node) bool {
	_, bcast, _ := collective(n.Op)
	return (n.Kind == Dense || n.Kind == Vector) && !bcast && n.Op != "spmm"
}

// wire runs the plan's collectives on float64 words — what dist moves — at
// either element width: a float64 buffer is the payload itself, any other is
// widened into the staging words for the call and narrowed back after it.
type wire[T elem] struct {
	grid  Grid
	words []float64 // staging; nil at float64
}

func (w *wire[T]) run(buf []T, call func(Grid, []float64)) {
	if f, ok := any(buf).([]float64); ok {
		call(w.grid, f)
		return
	}
	st := w.words[:len(buf)]
	tensor.Cast(st, buf)
	call(w.grid, st)
	tensor.Cast(buf, st)
}

// bcastAlong and reduceAlong are each other's VJP, applied to the cotangent.
func bcastAlong(ax Axis) func(Grid, []float64) {
	return func(g Grid, b []float64) { g.Bcast(ax, b) }
}

func reduceAlong(ax Axis) func(Grid, []float64) {
	return func(g Grid, b []float64) { g.ReduceToDiag(ax, b) }
}

func allreduceMax(g Grid, b []float64) { g.AllreduceRow(b, true) }
func allreduceSum(g Grid, b []float64) { g.AllreduceRow(b, false) }

// opCollective runs call over the storage of dense or vector node x — its
// value, or its cotangent — read at run time: a float64 plan's input is
// rebound per step.
func opCollective[T elem](w *wire[T], x *spec[T], cotangent bool, call func(Grid, []float64)) func() {
	vec := x.node.Kind == Vector
	return func() {
		switch {
		case vec && cotangent:
			w.run(x.gvec, call)
		case vec:
			w.run(x.vec, call)
		case cotangent:
			w.run(x.gdense.Data, call)
		default:
			w.run(x.dense.Data, call)
		}
	}
}

// opBcastForward is the bcast node out = x as seen from the pattern. On the
// diagonal out is x itself — no copy, no buffer of its own.
func opBcastForward[T elem](w *wire[T], ax Axis, x, out *spec[T]) func() {
	send := opCollective(w, out, false, bcastAlong(ax))
	if !w.grid.Diag() {
		return send
	}
	return func() {
		out.dense, out.vec = x.dense, x.vec
		send()
	}
}

// opSoftmaxGrid is the row softmax over a grid row's blocks: the three passes
// of softmaxRow as three local sweeps — scores (from sample) and block
// maxima, exp and block sums, normalize — with the maxima and the sums
// combined along the row in between (B words each, the cheap term of the
// Section 7 bound). Same operations on every entry in the same order, so a
// 1×1 grid gives the single-node bits.
func opSoftmaxGrid[T elem](w *wire[T], pat *sparse.CSR, cuts *par.Cuts, sample func(i int, row []T), dst, stat []T) func() {
	sweep := func(f func(i int, row []T)) func(worker, lo, hi int) {
		return func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				f(i, dst[pat.RowPtr[i]:pat.RowPtr[i+1]])
			}
		}
	}
	maxima := sweep(func(i int, row []T) { sample(i, row); stat[i] = rowMax(row) })
	sums := sweep(func(i int, row []T) { stat[i] = expSum(row, row, stat[i]) })
	normalize := sweep(func(i int, row []T) { scaleRow(row, 1/stat[i]) })
	return func() {
		par.RangeCuts(cuts, maxima)
		w.run(stat, allreduceMax)
		par.RangeCuts(cuts, sums)
		w.run(stat, allreduceSum)
		par.RangeCuts(cuts, normalize)
	}
}
