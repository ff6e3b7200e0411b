package fuse

import (
	"math"

	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The 1.5D A-stationary distribution of Section 7.1, as a lowering rule over
// the same DAG. On a process grid rank (i, j) keeps the block A_ij — and with
// it block (i, j) of every sparse and virtual node — for the whole run; dense
// and vector nodes live on the diagonal rank of grid row i, the owner of
// feature block i. A value crosses between the two in three ways, each
// lowered by the builder (graph.go) to a collective node as high as the
// pattern's side it feeds:
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
//
// The two ends of the family are the √p×√p grid, whose blocks are square,
// and the p×1 grid — the 1D row layout — whose rank i keeps the B×n row
// block A_i*. There every rank is its row's diagonal and the only rank of
// it, so nothing crosses along a row: the row side reads a node itself, the
// aggregation needs no reduce and the softmax is the single node's, fused
// like it. A column crossing is taller than its operand — one block per
// rank — and gathers every rank's block (an allgather); its VJP sums the
// ranks' cotangents and hands each rank its own block (a reduce-scatter).

// Axis is a direction of the process grid.
type Axis int

const (
	AlongRow Axis = iota // among the ranks (i, *) of this rank's grid row
	AlongCol             // among the ranks (*, j) of this rank's grid column
)

// Grid is the communication a plan performs when its pattern is one
// stationary block of a process grid; a Graph without one is a single node.
// Every collective runs among the ranks along one axis, over float64 words,
// in place. SPMD: all ranks compile the same DAG and so issue the same calls
// in the same order.
type Grid interface {
	// Diag reports whether this rank is its grid row's diagonal, the owner
	// of the row's dense block.
	Diag() bool
	// Along reports this rank's index among the ranks along ax and their
	// number.
	Along(ax Axis) (index, size int)
	// Bcast overwrites buf on every rank along ax with the diagonal rank's.
	// Where every rank along ax is a diagonal (the p×1 grid's column), buf
	// is one equal block per rank in Along's order, and every rank's block
	// ends up on every rank.
	Bcast(ax Axis, buf []float64)
	// ReduceToDiag sums the ranks' bufs along ax into the diagonal rank's;
	// the other ranks' contents are unspecified afterwards. Where every rank
	// along ax is a diagonal, each rank's block ends up holding its sum.
	ReduceToDiag(ax Axis, buf []float64)
	// AllreduceRow leaves the element-wise sum (or maximum) over the grid
	// row in every rank's buf.
	AllreduceRow(buf []float64, max bool)
}

// lowered reports whether the builder lowers crossings along ax: never on a
// single node, and along a row only where it holds more than one rank.
func (g *Graph) lowered(ax Axis) bool {
	if g.grid == nil {
		return false
	}
	_, n := g.grid.Along(ax)
	return ax == AlongCol || n > 1
}

// gathered reports whether n is a crossing taller than its operand: the p×1
// grid's column crossing, one block per rank.
func (g *Graph) gathered(n *Node) bool {
	_, bcast, _ := collective(n.Op)
	return bcast && g.md(n).rows != g.md(n.Inputs[0]).rows
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

// cross returns x as the pattern sees it along ax: x itself where nothing
// crosses (and for parameters, which are replicated), otherwise the
// broadcast of the diagonal rank's x — as high as the pattern's side it
// feeds — lowered once per axis however many operands read it.
func (g *Graph) cross(x *Node, ax Axis) *Node {
	if !g.lowered(ax) || x.Kind == Param {
		return x
	}
	if n, ok := g.crossed[crossing{x, ax}]; ok {
		return n
	}
	n := g.add(x.ID+"."+axisName[ax], bcastOps[ax], x.Kind, &meta{rows: g.side(ax), cols: g.md(x).cols}, x)
	g.crossed[crossing{x, ax}] = n
	return n
}

// side is the height of a node crossing along ax: the pattern's columns for
// the column side, its rows for the row side.
func (g *Graph) side(ax Axis) int {
	if ax == AlongCol {
		return g.pat.Cols
	}
	return g.pat.Rows
}

// onDiagonal reports whether a node exists on the diagonal rank only: the
// dense and vector nodes, except the broadcast copies and the per-block
// partial sums, which are on the pattern's side of the crossing.
func onDiagonal(n *Node) bool {
	_, bcast, _ := collective(n.Op)
	return (n.Kind == Dense || n.Kind == Vector) && !bcast && n.Op != "spmm"
}

// wire runs the plan's collectives on float64 words — what dist moves — at
// either element width. A float64 buffer is the payload itself. Any other is
// staged: a copy (a broadcast, the p×1 grid's gather) packs two float32
// values into each word, every owner's slice on words of its own, and a sum
// or maximum widens each value to a word. Both are exact, and the packed
// copy moves half the words.
type wire[T elem] struct {
	grid  Grid
	words []float64 // staging; nil at float64
}

// reduce runs a summing or maximizing collective on buf.
func (w *wire[T]) reduce(buf []T, call func(Grid, []float64)) {
	if f, ok := any(buf).([]float64); ok {
		call(w.grid, f)
		return
	}
	st := w.words[:len(buf)]
	tensor.Cast(st, buf)
	call(w.grid, st)
	tensor.Cast(buf, st)
}

// bcast runs Grid.Bcast along ax on buf, the slices of parts owners end to
// end.
func (w *wire[T]) bcast(ax Axis, buf []T, parts int) {
	f, ok := any(buf).([]float32)
	if !ok {
		w.grid.Bcast(ax, any(buf).([]float64))
		return
	}
	per := len(f) / parts
	half := (per + 1) / 2
	st := w.words[:parts*half]
	for q := range parts {
		packWords32(st[q*half:(q+1)*half], f[q*per:(q+1)*per])
	}
	w.grid.Bcast(ax, st)
	for q := range parts {
		unpackWords32(f[q*per:(q+1)*per], st[q*half:(q+1)*half])
	}
}

// packWords32 packs consecutive pairs of xs bitwise into the float64 words
// of dst, low 32 bits first; an odd tail pads with zero bits.
func packWords32(dst []float64, xs []float32) {
	for t := range dst {
		bits := uint64(math.Float32bits(xs[2*t]))
		if 2*t+1 < len(xs) {
			bits |= uint64(math.Float32bits(xs[2*t+1])) << 32
		}
		dst[t] = math.Float64frombits(bits)
	}
}

// unpackWords32 unpacks the pairs packWords32 packed into dst.
func unpackWords32(dst []float32, words []float64) {
	for t, w := range words {
		bits := math.Float64bits(w)
		dst[2*t] = math.Float32frombits(uint32(bits))
		if 2*t+1 < len(dst) {
			dst[2*t+1] = math.Float32frombits(uint32(bits >> 32))
		}
	}
}

func reduceAlong(ax Axis) func(Grid, []float64) {
	return func(g Grid, b []float64) { g.ReduceToDiag(ax, b) }
}

func allreduceMax(g Grid, b []float64) { g.AllreduceRow(b, true) }
func allreduceSum(g Grid, b []float64) { g.AllreduceRow(b, false) }

// storage is the words of dense or vector node x — its value, or its
// cotangent — read at run time: a float64 plan's input is rebound per step.
func storage[T elem](x *spec[T], cotangent bool) []T {
	vec := x.node.Kind == Vector
	switch {
	case vec && cotangent:
		return x.gvec
	case vec:
		return x.vec
	case cotangent:
		return x.gdense.Data
	}
	return x.dense.Data
}

// opBcast is the broadcast of x's value (forward) or of its cotangent, the
// VJP of a reduce, along ax.
func opBcast[T elem](w *wire[T], ax Axis, x *spec[T], cotangent bool) func() {
	return func() { w.bcast(ax, storage(x, cotangent), 1) }
}

// opReduce sums x's value (forward) or its cotangent, the VJP of a
// broadcast, along ax onto the diagonal.
func opReduce[T elem](w *wire[T], ax Axis, x *spec[T], cotangent bool) func() {
	call := reduceAlong(ax)
	return func() { w.reduce(storage(x, cotangent), call) }
}

// opBcastForward is the bcast node out = x as seen from the pattern. On the
// diagonal out is x itself — no copy, no buffer of its own.
func opBcastForward[T elem](w *wire[T], ax Axis, x, out *spec[T]) func() {
	send := opBcast(w, ax, out, false)
	if !w.grid.Diag() {
		return send
	}
	return func() {
		out.dense, out.vec = x.dense, x.vec
		send()
	}
}

// opGather is a column crossing taller than its operand, the p×1 grid's:
// this rank's x goes into its own block of out, then every rank's block to
// every rank.
func opGather[T elem](w *wire[T], x, out *spec[T]) func() {
	me, ranks := w.grid.Along(AlongCol)
	return func() {
		src, dst := storage(x, false), storage(out, false)
		copy(dst[me*len(src):], src)
		w.bcast(AlongCol, dst, ranks)
	}
}

// opGatherVJP is opGather's VJP: the ranks' cotangents of out are summed,
// block by block onto the block's owner, which adds its block into x's.
func opGatherVJP[T elem](w *wire[T], x, out *spec[T]) func() {
	me, _ := w.grid.Along(AlongCol)
	call := reduceAlong(AlongCol)
	return func() {
		g, gx := storage(out, true), storage(x, true)
		w.reduce(g, call)
		for i, v := range g[me*len(gx) : (me+1)*len(gx)] {
			gx[i] += v
		}
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
		w.reduce(stat, allreduceMax)
		par.RangeCuts(cuts, sums)
		w.reduce(stat, allreduceSum)
		par.RangeCuts(cuts, normalize)
	}
}
