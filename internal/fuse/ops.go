package fuse

import (
	"math"

	"agnn/internal/obs"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// This file contains the op bodies a compiled Plan executes. Every builder
// returns a func() whose loop body closures are created exactly once, at
// compile time: closure literals passed to par.Range escape to the heap
// when they are created, so building them per step would put one
// allocation per kernel on the hot path. With prebuilt bodies the
// steady-state forward/backward pass performs no allocations at all (the
// property the alloc-regression tests pin down). Every sweep over the
// sparsity pattern, and the dense projection with it, hands its rows to the
// row primitives of internal/sparse (GatherDots to sample, GatherAxpy to
// aggregate, ExpRow for the softmax in between, CosineRow for AGNN's
// normalisation); no op carries its own copy of those loops. The primitives
// gather through a sparse.Index: the pattern's own (CSR.Index, scanned once
// per pattern, like its transpose's), out of which every sweep slices its
// rows; and before a sweep works on a row it asks for the operand rows of the
// one after (prefetchRow).
//
// Every op body exists once, generic over the element type: Compile
// instantiates the whole stack at float64 or float32 (Options.DType). The
// two instantiations perform the same operations in the same order at their
// own width; golden_test.go pins the bits of both. Non-arithmetic functions
// (sqrt, transcendental activations) evaluate through float64 — at float32
// that costs only register-width conversions while the memory traffic, the
// thing float32 buys, stays halved. The one exception is the softmax
// exponential, which sparse.ExpRow takes at each width's own polynomial
// (expSum); no op branches on width.

// elem is the element type a plan is instantiated over.
type elem = tensor.Elem

// scoreRow evaluates one row of a virtual score matrix on the pattern:
// dst[q] = score(i, cols[q]), with i and cols global vertex indices. A row
// at a time is the granularity at which per-vertex terms hoist out of the
// per-edge loop and the dot products reach sparse.GatherDots; composeScore
// lowers every sampled chain to one.
type scoreRow[T elem] func(i int32, cols sparse.Index, dst []T)

// score is a sampled chain as composeScore lowers it: the row evaluator and,
// where that takes dot products against gathered rows, the dense node whose
// rows they are — what a sweep asks for ahead of itself.
type score[T elem] struct {
	row     scoreRow[T]
	gathers *spec[T]
}

// scoreEntry evaluates the single entry (i, j) of a virtual score matrix
// (the kernels.ScoreFunc contract, at the plan's element width). The
// virtual-node VJPs re-evaluate their operands through it, and chains
// without a row lowering of their own are swept by looping it.
type scoreEntry[T elem] func(i, j int32) T

// spec carries the execution-side state of one DAG node at the plan's
// element width: its buffers (acquired once at compile time from the plan's
// arena), the composed entry evaluator for virtual nodes, and the cotangent
// buffers of the derived backward pass. At float64 the input, parameter and
// parameter-gradient matrices alias the caller's storage; at float32 they
// are plan-owned copies kept in step by the plan boundary (plan.go).
type spec[T elem] struct {
	*meta

	dense *tensor.Mat[T] // dense value
	vec   []T            // vector value
	vals  []T            // sparse value buffer on the pattern
	stats []T            // a fused GAT softmax's row max and reciprocal sum, in pairs (training plans)
	entry scoreEntry[T]  // virtual evaluator, composed at compile time

	gdense *tensor.Mat[T] // cotangent buffers (training plans only)
	gvec   []T
	gvals  []T
	grad   *tensor.Mat[T] // parameter gradient accumulator (param nodes)
}

// planOp is one executable step of a compiled plan. Its instrument — the op
// class's metric handles, the static cost estimates and the compiling rank's
// event log — is resolved at compile time, so crediting a step is a handful
// of atomic operations: nothing on the hot path allocates or locks (the
// property the alloc-regression tests pin down).
type planOp struct {
	span string // record name, precomputed
	op   string // op vocabulary name, for Stats
	node *Node  // the node it computes, or whose VJP it is
	back bool   // a VJP
	run  func()
	site obs.Op // the op's one telemetry handle
}

// workerSlots grows a per-worker scratch slice to the current worker cap.
func workerSlots[S any](slots []S) []S {
	if need := par.Workers(); len(slots) < need {
		grown := make([]S, need)
		copy(grown, slots)
		return grown
	}
	return slots
}

// redScratch accumulates per-worker partial sums for scalar-parameter
// gradients (β, ε). Slots stay zero between calls.
type redScratch[T elem] struct{ sums []T }

func (r *redScratch[T]) ensure() { r.sums = workerSlots(r.sums) }

func (r *redScratch[T]) fold() T {
	var total T
	for i, v := range r.sums {
		if v != 0 {
			total += v
			r.sums[i] = 0
		}
	}
	return total
}

// partialsScratch holds per-worker dense accumulators for the Aᵀ·B weight
// gradients. Buffers are allocated lazily on first use (the warm-up step)
// and stay zero between calls.
type partialsScratch[T elem] struct{ mats []*tensor.Mat[T] }

func (s *partialsScratch[T]) ensure(k, m int) []*tensor.Mat[T] {
	s.mats = workerSlots(s.mats)
	for i, p := range s.mats {
		if p != nil && (p.Rows != k || p.Cols != m) {
			s.mats[i] = nil
		}
	}
	return s.mats
}

// prefetchAhead is how many pattern rows ahead of the one it is working on a
// sparse sweep asks for the operand rows it will gather. Most rows of a graph
// are a few edges long: their gathers all miss, and a row that short has
// nothing to overlap the misses with, so the sweep starts them from the row
// before. Distance and window cap (sparse.PrefetchRows) are read off the
// table in EXPERIMENTS.md "The glue between the kernels".
const prefetchAhead = 1

// prefetchRow issues the hint for the rows of x that pattern row
// i+prefetchAhead gathers, if the pattern has such a row.
func prefetchRow[T elem](pat *sparse.CSR, idx sparse.Index, i int, x *tensor.Mat[T]) {
	if i += prefetchAhead; i < pat.Rows {
		sparse.PrefetchRows(idx.Slice(pat.RowPtr[i], pat.RowPtr[i+1]), x.Data, x.Cols, 0, x.Cols)
	}
}

// gatherSweep is rowSweep for a row body that gathers rows of x through the
// pattern (x nil: it gathers none, and this is rowSweep).
func gatherSweep[T elem](pat *sparse.CSR, x *spec[T], each func(i int)) func(worker, lo, hi int) {
	if x == nil {
		return rowSweep(each)
	}
	idx := pat.Index()
	return func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			prefetchRow(pat, idx, i, x.dense)
			each(i)
		}
	}
}

// rowSampler builds the per-row body every sampling sweep shares: evaluate
// the composed scores of pattern row i into row (one slot per non-zero),
// multiply in the adjacency values when the mask is weighted (weights nil:
// it is not, or they are all 1), and — with softmax — normalize the row in
// place, recording the row's statistics in stats[2i:2i+2] where stats is
// non-nil (softmaxRow).
func rowSampler[T elem](pat *sparse.CSR, f scoreRow[T], weights []T, softmax bool, stats []T) func(i int, row []T) {
	idx := pat.Index()
	return func(i int, row []T) {
		b, e := pat.RowPtr[i], pat.RowPtr[i+1]
		if b == e {
			return
		}
		f(int32(i), idx.Slice(b, e), row)
		if weights != nil {
			for q, w := range weights[b:e] {
				row[q] *= w
			}
		}
		if softmax {
			m, c := softmaxRow(row, row)
			if stats != nil {
				stats[2*i], stats[2*i+1] = m, c
			}
		}
	}
}

// softmaxRow writes the softmax of the non-empty row src to dst (dst may be
// src): max, exp and sum, normalize — three passes over a row that is
// cache-hot after the first. It returns the row's statistics, its max m and
// the reciprocal c of its sum, from which every entry is exp(src[q] − m)·c
// again (opAttnFusedVJP). (On a process grid the same three run as three
// sweeps with the row statistics exchanged in between: opSoftmaxGrid.)
func softmaxRow[T elem](dst, src []T) (m, c T) {
	m = rowMax(src)
	c = 1 / expSum(dst, src, m)
	scaleRow(dst, c)
	return m, c
}

func rowMax[T elem](row []T) T {
	m := T(math.Inf(-1))
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	return m
}

// expSum writes exp(src − m) to dst and returns its sum, formed in q order
// from +0. The exponential is sparse.ExpRow's, taken over the whole row first
// — math.Exp's bits at float64, exp32's at float32, four or eight lanes at a
// time where the CPU allows — and summed in a second pass over the row just
// written.
func expSum[T elem](dst, src []T, m T) T {
	sparse.ExpRow(dst, src, m)
	var sum T
	for _, v := range dst[:len(src)] {
		sum += v
	}
	return sum
}

// lrelu is LeakyReLU, s·slope below zero: GAT's score, written once for the
// sweeps that sample it and the backward sweep that recomputes it. s·1 is s
// and −0·1 is −0, so it is the branching form to the bit.
func lrelu[T elem](s, slope T) T { return s * lreluD(s, slope) }

// lreluD is LeakyReLU's derivative at s, 1 or slope below zero: a select,
// not a branch — the sign of a score is a coin toss the predictor loses.
func lreluD[T elem](s, slope T) T { return [2]T{1, slope}[b2i(s < 0)] }

// b2i is 1 for true and 0 for false; the compiler lowers it to SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func scaleRow[T elem](row []T, c T) {
	for q := range row {
		row[q] *= c
	}
}

// opSample is the fused SDDMM-like sampler that terminates a fusion group
// (Section 6.2): it evaluates the composed virtual score rows on the
// pattern. weights (the adjacency values) multiply each score when the mask
// is weighted; with softmax, the row softmax is folded into the same sweep.
func opSample[T elem](pat *sparse.CSR, cuts *par.Cuts, dst []T, f score[T], weights []T, softmax bool) func() {
	sample := rowSampler(pat, f.row, weights, softmax, nil)
	each := func(i int) { sample(i, dst[pat.RowPtr[i]:pat.RowPtr[i+1]]) }
	body := gatherSweep(pat, f.gathers, each)
	return func() { par.RangeCuts(cuts, body) }
}

// rowSweep lifts a single-row body into the chunked (worker, lo, hi) shape
// the par schedulers execute.
func rowSweep(each func(i int)) func(worker, lo, hi int) {
	return func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			each(i)
		}
	}
}

// opRowSoftmax is the standalone row softmax (used when the peephole could
// not fold it into the sampler).
func opRowSoftmax[T elem](pat *sparse.CSR, cuts *par.Cuts, src, dst []T) func() {
	each := func(i int) {
		if b, e := pat.RowPtr[i], pat.RowPtr[i+1]; b < e {
			softmaxRow(dst[b:e], src[b:e])
		}
	}
	body := rowSweep(each)
	return func() { par.RangeCuts(cuts, body) }
}

// opSpMM computes out = S·X over the shared pattern, with svals the sparse
// node's value buffer (or the adjacency's own values; nil for a pattern,
// whose rows read ones).
func opSpMM[T elem](pat *sparse.CSR, cuts *par.Cuts, svals []T, x, out *spec[T]) func() {
	idx := pat.Index()
	vals := sparse.RowValues(pat, svals)
	each := func(i int) {
		xd, od := x.dense, out.dense
		k := od.Cols
		orow := od.Data[i*k : (i+1)*k]
		clear(orow)
		b, e := pat.RowPtr[i], pat.RowPtr[i+1]
		sparse.GatherAxpy(orow, vals(b, e), idx.Slice(b, e), xd.Data, k, 0)
	}
	body := gatherSweep(pat, x, each)
	return func() { par.RangeCuts(cuts, body) }
}

// opSemiring is opSpMM over a non-real semiring (Section 4.3), its row loop
// chosen here, once, by kind. Max and min are tropical: ⊗ adds the edge's
// unit (0, whatever its stored value) to the feature, ⊕ is math.Max /
// math.Min at width T, an empty row keeps ⊕'s identity ∓Inf. Mean is the ℝ²
// averaging semiring with the running weight w kept beside the row: an edge
// of weight s merges feature x as (v·w + x·s)/(w + s), and a zero total
// weight resets the row. Max and min are the bits of the dense evaluator's
// fold (the fuse tests' oracle: math.Max / math.Min over the row in column
// order from ∓Inf); the mean is its Σ s·x / Σ s to rounding.
//
// The tropical row folds the edges with the builtin max / min (maxInto,
// minInto), which agree with math.Max / math.Min on every pair without a NaN
// (−0 below +0 included). A NaN sticks under the builtins, where math.Max
// lets +Inf win over it and returns math.NaN()'s bits otherwise: a column
// that ends NaN is folded again with math.Max / math.Min.
func opSemiring[T elem](pat *sparse.CSR, cuts *par.Cuts, svals []T, x, out *spec[T], kind string) func() {
	var each func(i int)
	switch kind {
	case "max", "min":
		pick, fold, identity := math.Max, maxInto[T], math.Inf(-1)
		if kind == "min" {
			pick, fold, identity = math.Min, minInto[T], math.Inf(1)
		}
		each = func(i int) {
			xd, k := x.dense.Data, out.cols
			orow := out.dense.Data[i*k : (i+1)*k]
			cols := pat.Col[pat.RowPtr[i]:pat.RowPtr[i+1]]
			for c := range orow {
				orow[c] = T(identity)
			}
			fold(orow, xd, cols, k)
			var unit T // the tropical ⊗-identity every edge maps to
			for c, v := range orow {
				orow[c] = unit + v
				if v != v {
					acc := identity
					for _, j := range cols {
						acc = pick(acc, float64(unit+xd[int(j)*k+c]))
					}
					orow[c] = T(acc)
				}
			}
		}
	default:
		vals := sparse.RowValues(pat, svals)
		each = func(i int) {
			xd, k := x.dense.Data, out.cols
			orow := out.dense.Data[i*k : (i+1)*k]
			clear(orow)
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			var w T
			for q, s := range vals(b, e) {
				sum := w + s
				if sum == 0 {
					clear(orow)
					w = 0
					continue
				}
				j := int(pat.Col[b+int64(q)])
				for c, xv := range xd[j*k : (j+1)*k] {
					orow[c] = (orow[c]*w + xv*s) / sum
				}
				w = sum
			}
		}
	}
	body := gatherSweep(pat, x, each)
	return func() { par.RangeCuts(cuts, body) }
}

// maxInto folds the rows of x (k wide) at cols into orow under the builtin
// max, four at a time: orow read and written once per four rows. Without a
// NaN the maximum is one of its operands whatever the order, so the grouping
// cannot change a bit; and since 0 + x only turns −0 into +0, a map that
// keeps the order, the caller adds the tropical unit once to the maximum
// instead of to every operand.
func maxInto[T elem](orow, x []T, cols []int32, k int) {
	q := 0
	for ; q+4 <= len(cols); q += 4 {
		a, b := x[int(cols[q])*k:][:len(orow)], x[int(cols[q+1])*k:][:len(orow)]
		c, d := x[int(cols[q+2])*k:][:len(orow)], x[int(cols[q+3])*k:][:len(orow)]
		for i, v := range orow {
			// max(v, a, b, c, d) as −min of the negations, in a tree: the
			// builtin max negates around a min at every step.
			orow[i] = -min(-v, min(-a[i], -b[i]), min(-c[i], -d[i]))
		}
	}
	for ; q < len(cols); q++ {
		a := x[int(cols[q])*k:][:len(orow)]
		for i, v := range orow {
			orow[i] = max(v, a[i])
		}
	}
}

// minInto is maxInto under the builtin min.
func minInto[T elem](orow, x []T, cols []int32, k int) {
	q := 0
	for ; q+4 <= len(cols); q += 4 {
		a, b := x[int(cols[q])*k:][:len(orow)], x[int(cols[q+1])*k:][:len(orow)]
		c, d := x[int(cols[q+2])*k:][:len(orow)], x[int(cols[q+3])*k:][:len(orow)]
		for i, v := range orow {
			orow[i] = min(v, min(a[i], b[i]), min(c[i], d[i]))
		}
	}
	for ; q < len(cols); q++ {
		a := x[int(cols[q])*k:][:len(orow)]
		for i, v := range orow {
			orow[i] = min(v, a[i])
		}
	}
}

// opConcat copies the rows of xs side by side into out.
func opConcat[T elem](xs []*spec[T], out *spec[T]) func() {
	each := func(i int) {
		orow := out.dense.Data[i*out.cols : (i+1)*out.cols]
		for _, x := range xs {
			orow = orow[copy(orow, x.dense.Data[i*x.cols:(i+1)*x.cols]):]
		}
	}
	body := rowSweep(each)
	return func() { par.Range(out.rows, body) }
}

// opMean computes out = (X₁ + X₂ + …)/K, summed in operand order.
func opMean[T elem](xs []*spec[T], out *spec[T]) func() {
	cols, inv := out.cols, T(1/float64(len(xs)))
	each := func(i int) {
		orow := out.dense.Data[i*cols : (i+1)*cols]
		copy(orow, xs[0].dense.Data[i*cols:(i+1)*cols])
		for _, x := range xs[1:] {
			for c, v := range x.dense.Data[i*cols : (i+1)*cols] {
				orow[c] += v
			}
		}
		scaleRow(orow, inv)
	}
	body := rowSweep(each)
	return func() { par.Range(out.rows, body) }
}

// rowIndex is 0, 1, …, n−1: the "pattern row" under which the dense
// projection reaches the two row primitives (every row of W, in order).
func rowIndex(n int) []int32 {
	idx := make([]int32, n)
	for t := range idx {
		idx[t] = int32(t)
	}
	return idx
}

// opMM computes out = X·W (W a parameter): output row i is the rows of W
// gathered in order and weighted by X[i,:], which is sparse.GatherAxpy with
// the identity index — the projection runs on the kernel the aggregation
// runs on. A zero feature is multiplied like any other, so a non-finite
// weight reaches every output row (0·Inf is NaN, as IEEE 754 has it); with
// finite weights the sum starts at +0 and a ±0 product cannot change it.
func opMM[T elem](x, w, out *spec[T]) func() {
	wrows := sparse.NewIndex(rowIndex(x.cols))
	each := func(i int) {
		xd, wd, od := x.dense, w.dense, out.dense
		k, m := xd.Cols, od.Cols
		orow := od.Data[i*m : (i+1)*m]
		clear(orow)
		sparse.GatherAxpy(orow, xd.Data[i*k:(i+1)*k], wrows, wd.Data, m, 0)
	}
	body := rowSweep(each)
	return func() { par.Range(out.rows, body) }
}

// opMatVec computes out = X·a for a k×1 parameter a.
func opMatVec[T elem](x, a, out *spec[T]) func() {
	each := func(i int) {
		xd, av := x.dense, a.dense.Data
		k := xd.Cols
		row := xd.Data[i*k : (i+1)*k]
		var s T
		for t, v := range row {
			s += v * av[t]
		}
		out.vec[i] = s
	}
	body := rowSweep(each)
	return func() { par.Range(out.rows, body) }
}

// opRowNorms computes the row L2 norms of X.
func opRowNorms[T elem](x, out *spec[T]) func() {
	each := func(i int) {
		xd := x.dense
		k := xd.Cols
		row := xd.Data[i*k : (i+1)*k]
		var s T
		for _, v := range row {
			s += v * v
		}
		out.vec[i] = T(math.Sqrt(float64(s)))
	}
	body := rowSweep(each)
	return func() { par.Range(out.rows, body) }
}

// isIdentity reports the no-op activation (a zero Act included, the
// convention the layer constructors use for "no activation").
func (a Act) isIdentity() bool { return a.Name == "identity" || a.F == nil }

// opSigma applies the activation element-wise, swept row by row. The piecewise-linear
// activations (relu, identity) are exact at either width and get native
// bodies — skipping the closure call per element matters on an op this
// memory-thin. Everything else evaluates through the float64 contract.
func opSigma[T elem](z, out *spec[T]) func() {
	cols := out.cols
	var each func(i int)
	switch act := out.act; {
	case act.Name == "relu":
		each = func(i int) {
			zd, od := z.dense.Data, out.dense.Data
			for t := i * cols; t < (i+1)*cols; t++ {
				od[t] = max(zd[t], 0) // branchless, like math.Max
			}
		}
	case act.isIdentity():
		each = func(i int) {
			if out.dense != z.dense { // not in place
				copy(out.dense.Data[i*cols:(i+1)*cols], z.dense.Data[i*cols:(i+1)*cols])
			}
		}
	default:
		f := act.F
		each = func(i int) {
			zd, od := z.dense.Data, out.dense.Data
			for t := i * cols; t < (i+1)*cols; t++ {
				od[t] = T(f(float64(zd[t])))
			}
		}
	}
	body := rowSweep(each)
	return func() { par.Range(out.rows, body) }
}

// opGINCombine computes out = agg + (1+ε)·h, reading ε at run time so
// optimizer updates are observed. h may be taller than agg (a row block's
// full-height input): row i combines with h's row i.
func opGINCombine[T elem](agg, h, eps, out *spec[T]) func() {
	cols := out.cols
	each := func(i int) {
		c := 1 + eps.dense.Data[0]
		ad, od, hd := agg.dense.Data, out.dense.Data, h.dense.Data
		for t := i * cols; t < (i+1)*cols; t++ {
			od[t] = ad[t] + c*hd[t]
		}
	}
	body := rowSweep(each)
	return func() { par.Range(out.rows, body) }
}

// --- backward op bodies (reverse-traversal VJPs) ---

// opSigmaVJP accumulates z̄ += ḡ ⊙ σ'(z), with σ' evaluated at the stored
// pre-activation (the gnn.Activation contract) and the same native bodies
// as opSigma for the piecewise-linear activations. With set — σ's VJP is the
// one writer of z̄, which is then not cleared — it writes z̄ = 0 + ḡ ⊙ σ'(z)
// instead, the bits of the clear and the accumulate (−0 included: 0 + −0 is
// +0). Element t is read before it is written and nothing else is, so z̄ may
// lie on ḡ's words: σ's VJP then overwrites the cotangent it consumes.
func opSigmaVJP[T elem](z, out *spec[T], set bool) func() {
	var body func(worker, lo, hi int)
	switch act := out.act; {
	case act.Name == "relu" && set:
		body = func(_, lo, hi int) {
			zd, zg, og := z.dense.Data, z.gdense.Data, out.gdense.Data
			for i := lo; i < hi; i++ {
				if zd[i] > 0 {
					zg[i] = 0 + og[i]
				} else {
					zg[i] = 0
				}
			}
		}
	case act.Name == "relu":
		body = func(_, lo, hi int) {
			zd, zg, og := z.dense.Data, z.gdense.Data, out.gdense.Data
			for i := lo; i < hi; i++ {
				if zd[i] > 0 {
					zg[i] += og[i]
				}
			}
		}
	case act.isIdentity() && set:
		body = func(_, lo, hi int) {
			zg, og := z.gdense.Data, out.gdense.Data
			for i := lo; i < hi; i++ {
				zg[i] = 0 + og[i]
			}
		}
	case act.isIdentity():
		body = func(_, lo, hi int) {
			zg, og := z.gdense.Data, out.gdense.Data
			for i := lo; i < hi; i++ {
				zg[i] += og[i]
			}
		}
	case set:
		df := act.DF
		body = func(_, lo, hi int) {
			zd, zg, og := z.dense.Data, z.gdense.Data, out.gdense.Data
			for i := lo; i < hi; i++ {
				zg[i] = 0 + og[i]*T(df(float64(zd[i])))
			}
		}
	default:
		df := act.DF
		body = func(_, lo, hi int) {
			zd, zg, og := z.dense.Data, z.gdense.Data, out.gdense.Data
			for i := lo; i < hi; i++ {
				zg[i] += og[i] * T(df(float64(zd[i])))
			}
		}
	}
	return func() { par.Range(out.rows*out.cols, body) }
}

// mmBlock is how many rows of X the weight half of opMMVJP transposes at a
// time: long enough that the accumulator strip of GatherAxpy stays in
// registers over many rows, short enough that the transposed block (mmBlock
// values per column of X) stays in the first-level cache.
const mmBlock = 128

// opMMVJP accumulates X̄ += Ḡ·Wᵀ — row i of Ḡ against every row of W,
// sparse.GatherDots with the identity index, into a per-worker k-vector that
// is then added to X̄[i,:] — and W̄ += Xᵀ·Ḡ into per-worker partials, folded
// and re-zeroed after the sweep. The weight half runs on sparse.GatherAxpy as
// well: a block of mmBlock rows of X is transposed into per-worker scratch,
// and column t of the block — X[i, t] for the block's i, ascending — is the
// score row under which the block's rows of Ḡ are added into W̄[t, :]. Every
// sum receives its terms in i order, and a zero feature is multiplied like any
// other, so a non-finite cotangent reaches W̄ as it reaches X̄ and, in the
// forward pass, the output.
func opMMVJP[T elem](x, w, out *spec[T], ps *partialsScratch[T]) func() {
	wrows := sparse.NewIndex(rowIndex(x.cols))
	dots := &rowScratch[T]{maxRow: x.cols}
	xBody := func(worker, lo, hi int) {
		wd, og, xg := w.dense, out.gdense, x.gdense
		k, m := xg.Cols, og.Cols
		s := dots.row(worker)
		for i := lo; i < hi; i++ {
			sparse.GatherDots(s, og.Data[i*m:(i+1)*m], wrows, wd.Data, m, 0)
			xrow := xg.Data[i*k : (i+1)*k]
			for t, v := range s {
				xrow[t] += v
			}
		}
	}
	blockRows := rowIndex(mmBlock)
	blocks := &rowScratch[T]{maxRow: x.cols * mmBlock}
	wBody := func(worker, lo, hi int) {
		xd, og := x.dense, out.gdense
		k, m := xd.Cols, og.Cols
		acc := ps.mats[worker]
		if acc == nil {
			acc = tensor.NewMat[T](k, m)
			ps.mats[worker] = acc
		}
		xt := blocks.row(worker)
		for i0 := lo; i0 < hi; i0 += mmBlock {
			nb := min(mmBlock, hi-i0)
			for r := 0; r < nb; r++ {
				for t, xv := range xd.Data[(i0+r)*k : (i0+r+1)*k] {
					xt[t*mmBlock+r] = xv
				}
			}
			rows, grows := sparse.NewIndex(blockRows[:nb]), og.Data[i0*m:(i0+nb)*m]
			for t := 0; t < k; t++ {
				sparse.GatherAxpy(acc.Data[t*m:(t+1)*m], xt[t*mmBlock:t*mmBlock+nb], rows, grows, m, 0)
			}
		}
	}
	grad := w.grad
	return func() {
		dots.ensure()
		par.Range(out.rows, xBody)
		mats := ps.ensure(x.cols, out.cols)
		blocks.ensure()
		par.Range(out.rows, wBody)
		for _, p := range mats {
			if p == nil {
				continue
			}
			for i, v := range p.Data {
				grad.Data[i] += v
				p.Data[i] = 0
			}
		}
	}
}

// transposedRows reads values stored on the pattern through its transpose
// (sparse.Transposed): row j of Sᵀ gathered, in Sᵀ's order, into a per-worker
// scratch row. The backward sweeps that run over columns — X̄ += Sᵀ·Z̄ and
// its kin — hand that row to the same primitives the forward uses, without a
// transposed copy of the values.
type transposedRows[T elem] struct {
	patT    *sparse.CSR
	idxT    sparse.Index
	src     []uint32
	scratch rowScratch[T]
}

func newTransposedRows[T elem](t *sparse.Transposed) *transposedRows[T] {
	return &transposedRows[T]{patT: t.Pat, idxT: t.Pat.Index(), src: t.Src, scratch: rowScratch[T]{maxRow: t.Pat.MaxRowNNZ()}}
}

// row returns the columns and the gathered values of row j of Sᵀ.
func (t *transposedRows[T]) row(worker, j int, vals []T) (sparse.Index, []T) {
	b, e := t.patT.RowPtr[j], t.patT.RowPtr[j+1]
	row := t.scratch.row(worker)[:e-b]
	for q, p := range t.src[b:e] {
		row[q] = vals[p]
	}
	return t.idxT.Slice(b, e), row
}

// opSpMMVJP handles Z = S·X: the sampler cotangent S̄_ij = Z̄[i,:]·X[j,:]
// (written onto the pattern — the SDDMM of the backward pass) and the
// feature cotangent X̄ += Sᵀ·Z̄ over the transposed pattern. For the
// adjacency leaf (svals and sgvals nil) only the feature half runs (A is
// not trainable), over adjT, A's values in Aᵀ's order (nil, ones, for a
// pattern); a sparse value node's
// current values are read through the transpose row by row.
func opSpMMVJP[T elem](pat *sparse.CSR, cuts, cutsT *par.Cuts, svals, sgvals []T, tr *transposedRows[T], adjT []T, x, out *spec[T]) func() {
	idx := pat.Index()
	var samplerBody func(int, int, int)
	if sgvals != nil {
		samplerBody = func(_, lo, hi int) {
			og, xd := out.gdense, x.dense
			k := og.Cols
			for i := lo; i < hi; i++ {
				prefetchRow(pat, idx, i, xd)
				b, e := pat.RowPtr[i], pat.RowPtr[i+1]
				sparse.GatherDots(sgvals[b:e], og.Data[i*k:(i+1)*k], idx.Slice(b, e), xd.Data, k, 0)
			}
		}
	}
	patT, idxT, adjVals := tr.patT, tr.idxT, sparse.RowValues(tr.patT, adjT)
	accBody := func(worker, lo, hi int) {
		og, xg := out.gdense, x.gdense
		k := xg.Cols
		for j := lo; j < hi; j++ {
			prefetchRow(patT, idxT, j, og)
			var cols sparse.Index
			var vals []T
			if svals != nil {
				cols, vals = tr.row(worker, j, svals)
			} else {
				b, e := patT.RowPtr[j], patT.RowPtr[j+1]
				cols, vals = idxT.Slice(b, e), adjVals(b, e)
			}
			sparse.GatherAxpy(xg.Data[j*k:(j+1)*k], vals, cols, og.Data, k, 0)
		}
	}
	return func() {
		if samplerBody != nil {
			par.RangeCuts(cuts, samplerBody)
		}
		tr.scratch.ensure()
		par.RangeCuts(cutsT, accBody)
	}
}

// opSoftmaxVJP rewrites the softmax cotangent in place — the scores under
// the softmax share its buffer: Ḡ_ij ← P_ij·(Ḡ_ij − ρ_i), ρ_i = Σ_j Ḡ_ij·P_ij.
// On a process grid (w non-nil) row i spans the grid row: the two loops run
// as two sweeps, with ρ summed along the row in between.
func opSoftmaxVJP[T elem](pat *sparse.CSR, cuts *par.Cuts, pvals, gvals []T, w *wire[T], stat []T) func() {
	rho := func(i int) (r T) {
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			r += gvals[p] * pvals[p]
		}
		return r
	}
	apply := func(i int, rho T) {
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			gvals[p] = pvals[p] * (gvals[p] - rho)
		}
	}
	if w == nil {
		body := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				apply(i, rho(i))
			}
		}
		return func() { par.RangeCuts(cuts, body) }
	}
	rhos := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			stat[i] = rho(i)
		}
	}
	applies := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			apply(i, stat[i])
		}
	}
	return func() {
		par.RangeCuts(cuts, rhos)
		w.reduce(stat, allreduceSum)
		par.RangeCuts(cuts, applies)
	}
}

// opMaskVJP propagates a weighted mask's cotangent to its virtual input by
// multiplying A's values back in — in place: the two share the buffer.
func opMaskVJP[T elem](gvals, weights []T) func() {
	body := func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			gvals[p] *= weights[p]
		}
	}
	n := len(gvals)
	return func() { par.Range(n, body) }
}

// opDotVJP handles the virtual C = X·Yᵀ: X̄ += C̄·Y and Ȳ += C̄ᵀ·X, both
// restricted to the pattern (C̄ lives on it). Aliased X == Y (the H·Hᵀ
// self-attention case) is safe: the two accumulations run sequentially.
func opDotVJP[T elem](pat *sparse.CSR, cuts, cutsT *par.Cuts, gvals []T, tr *transposedRows[T], x, y *spec[T]) func() {
	idx := pat.Index()
	xBody := func(_, lo, hi int) {
		yd, xg := y.dense, x.gdense
		k := xg.Cols
		for i := lo; i < hi; i++ {
			prefetchRow(pat, idx, i, yd)
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			sparse.GatherAxpy(xg.Data[i*k:(i+1)*k], gvals[b:e], idx.Slice(b, e), yd.Data, k, 0)
		}
	}
	yBody := func(worker, lo, hi int) {
		xd, yg := x.dense, y.gdense
		k := yg.Cols
		for j := lo; j < hi; j++ {
			prefetchRow(tr.patT, tr.idxT, j, xd)
			cols, vals := tr.row(worker, j, gvals)
			sparse.GatherAxpy(yg.Data[j*k:(j+1)*k], vals, cols, xd.Data, k, 0)
		}
	}
	return func() {
		par.RangeCuts(cuts, xBody)
		tr.scratch.ensure()
		par.RangeCuts(cutsT, yBody)
	}
}

// opOuterVJP handles the virtual C = a·bᵀ: ā_i += Σ_j C̄_ij·b_j and
// b̄_j += Σ_i C̄_ij·a_i (column sums through the transposed pattern).
func opOuterVJP[T elem](pat *sparse.CSR, cuts, cutsT *par.Cuts, gvals []T, tr *transposedRows[T], a, b *spec[T]) func() {
	aBody := func(_, lo, hi int) {
		bv, ag := b.vec, a.gvec
		for i := lo; i < hi; i++ {
			var s T
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				s += gvals[p] * bv[pat.Col[p]]
			}
			ag[i] += s
		}
	}
	patT, src := tr.patT, tr.src
	bBody := func(_, lo, hi int) {
		av, bg := a.vec, b.gvec
		for j := lo; j < hi; j++ {
			var s T
			for q := patT.RowPtr[j]; q < patT.RowPtr[j+1]; q++ {
				s += gvals[src[q]] * av[patT.Col[q]]
			}
			bg[j] += s
		}
	}
	return func() {
		par.RangeCuts(cuts, aBody)
		par.RangeCuts(cutsT, bBody)
	}
}

// opDivVJP handles C = N ⊘ D on the pattern, recomputing the virtual
// operands entry-wise: N̄ = C̄ ⊘ D, D̄ = −C̄ ⊙ N ⊘ D². Zero denominators
// (the zero-norm guard) contribute zero cotangent.
func opDivVJP[T elem](pat *sparse.CSR, cuts *par.Cuts, gvals []T, num, den *spec[T]) func() {
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			gi := int32(i)
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				de := den.entry(gi, pat.Col[p])
				if de == 0 {
					num.gvals[p] = 0
					den.gvals[p] = 0
					continue
				}
				g := gvals[p]
				ne := num.entry(gi, pat.Col[p])
				num.gvals[p] = g / de
				den.gvals[p] = -g * ne / (de * de)
			}
		}
	}
	return func() { par.RangeCuts(cuts, body) }
}

// opScaleVJP handles C = β·X: X̄ = β·C̄ and β̄ += Σ C̄ ⊙ X, the latter
// re-evaluating the virtual X entry-wise and reducing over per-worker
// partial sums.
func opScaleVJP[T elem](pat *sparse.CSR, cuts *par.Cuts, gvals []T, x, beta *spec[T], rs *redScratch[T]) func() {
	body := func(worker, lo, hi int) {
		bv := beta.dense.Data[0]
		var local T
		for i := lo; i < hi; i++ {
			gi := int32(i)
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				g := gvals[p]
				x.gvals[p] = bv * g
				if g != 0 {
					local += g * x.entry(gi, pat.Col[p])
				}
			}
		}
		rs.sums[worker] += local
	}
	grad := beta.grad
	return func() {
		rs.ensure()
		par.RangeCuts(cuts, body)
		grad.Data[0] += rs.fold()
	}
}

// opRepVJP handles C = u·1ᵀ: ū_i += Σ_j C̄_ij (row sums).
func opRepVJP[T elem](pat *sparse.CSR, cuts *par.Cuts, gvals []T, u *spec[T]) func() {
	body := func(_, lo, hi int) {
		ug := u.gvec
		for i := lo; i < hi; i++ {
			var s T
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				s += gvals[p]
			}
			ug[i] += s
		}
	}
	return func() { par.RangeCuts(cuts, body) }
}

// opRepTVJP handles C = 1·vᵀ: v̄_j += Σ_i C̄_ij (column sums through the
// transposed pattern).
func opRepTVJP[T elem](cutsT *par.Cuts, gvals []T, tr *transposedRows[T], v *spec[T]) func() {
	patT, src := tr.patT, tr.src
	body := func(_, lo, hi int) {
		vg := v.gvec
		for j := lo; j < hi; j++ {
			var s T
			for _, p := range src[patT.RowPtr[j]:patT.RowPtr[j+1]] {
				s += gvals[p]
			}
			vg[j] += s
		}
	}
	return func() { par.RangeCuts(cutsT, body) }
}

// opLReLUVJP handles C = LeakyReLU(X): X̄ = C̄ ⊙ (X < 0 ? slope : 1),
// re-evaluating the virtual input's sign entry-wise. Not inlined: the sweep
// of a builder inlined into its caller calls lreluD instead of inlining it.
//
//go:noinline
func opLReLUVJP[T elem](pat *sparse.CSR, cuts *par.Cuts, gvals []T, x *spec[T], slope T) func() {
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			gi := int32(i)
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				x.gvals[p] = gvals[p] * lreluD(x.entry(gi, pat.Col[p]), slope)
			}
		}
	}
	return func() { par.RangeCuts(cuts, body) }
}

// opSqDistVJP handles the virtual C = ‖X[i,:] − Y[j,:]‖²: X̄[i,:] +=
// Σ_j 2·C̄_ij·(X[i,:] − Y[j,:]) over the pattern and Ȳ[j,:] += Σ_i 2·C̄_ij·
// (Y[j,:] − X[i,:]) over its transpose. Aliased X == Y is safe, as in
// opDotVJP.
func opSqDistVJP[T elem](pat *sparse.CSR, cuts, cutsT *par.Cuts, gvals []T, tr *transposedRows[T], x, y *spec[T]) func() {
	// pull adds Σ_q 2·vals[q]·(self − other[cols[q],:]) to grad.
	pull := func(grad, self []T, vals []T, cols []int32, other []T) {
		k := len(self)
		for q, j := range cols {
			g := 2 * vals[q]
			for t, v := range other[int(j)*k : (int(j)+1)*k] {
				grad[t] += g * (self[t] - v)
			}
		}
	}
	xBody := func(_, lo, hi int) {
		xd, yd, xg := x.dense.Data, y.dense.Data, x.gdense.Data
		k := x.cols
		for i := lo; i < hi; i++ {
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			pull(xg[i*k:(i+1)*k], xd[i*k:(i+1)*k], gvals[b:e], pat.Col[b:e], yd)
		}
	}
	yBody := func(worker, lo, hi int) {
		xd, yd, yg := x.dense.Data, y.dense.Data, y.gdense.Data
		k := y.cols
		for j := lo; j < hi; j++ {
			cols, vals := tr.row(worker, j, gvals)
			pull(yg[j*k:(j+1)*k], yd[j*k:(j+1)*k], vals, cols.Cols(), xd)
		}
	}
	return func() {
		par.RangeCuts(cuts, xBody)
		tr.scratch.ensure()
		par.RangeCuts(cutsT, yBody)
	}
}

// opConcatVJP hands each operand its columns of the cotangent.
func opConcatVJP[T elem](xs []*spec[T], out *spec[T]) func() {
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			grow := out.gdense.Data[i*out.cols : (i+1)*out.cols]
			for _, x := range xs {
				for c, g := range grow[:x.cols] {
					x.gdense.Data[i*x.cols+c] += g
				}
				grow = grow[x.cols:]
			}
		}
	}
	return func() { par.Range(out.rows, body) }
}

// opMeanVJP hands every operand the cotangent over K.
func opMeanVJP[T elem](xs []*spec[T], out *spec[T]) func() {
	inv := T(1 / float64(len(xs)))
	body := func(_, lo, hi int) {
		for _, x := range xs {
			for t := lo; t < hi; t++ {
				x.gdense.Data[t] += out.gdense.Data[t] * inv
			}
		}
	}
	return func() { par.Range(out.rows*out.cols, body) }
}

// opMatVecVJP handles u = X·a: X̄ += ū·aᵀ (a rank-1 row update) and
// ā += Xᵀ·ū, where column t of ā takes its terms over the rows in row order,
// like tensor.VecMat. The columns split across workers (par.Split: k is
// short, but each column is a pass over n rows), each summing its columns in
// its own scratch so that no two workers write one cache line.
func opMatVecVJP[T elem](x, a, out *spec[T]) func() {
	rowBody := func(_, lo, hi int) {
		av, xg := a.dense.Data, x.gdense
		k := xg.Cols
		for i := lo; i < hi; i++ {
			g := out.gvec[i]
			if g == 0 {
				continue
			}
			xrow := xg.Data[i*k : (i+1)*k]
			for t, v := range av {
				xrow[t] += g * v
			}
		}
	}
	grad := a.grad
	sums := &rowScratch[T]{maxRow: x.cols}
	colBody := func(worker, lo, hi int) {
		xd := x.dense
		k := xd.Cols
		acc := sums.row(worker)[lo:hi]
		copy(acc, grad.Data[lo:hi])
		for i, g := range out.gvec {
			if g == 0 {
				continue
			}
			for t, v := range xd.Data[i*k+lo : i*k+hi] {
				acc[t] += g * v
			}
		}
		copy(grad.Data[lo:hi], acc)
	}
	return func() {
		par.Range(out.rows, rowBody)
		sums.ensure()
		par.Split(x.cols, colBody)
	}
}

// opRowNormsVJP handles n_i = ‖X[i,:]‖₂: X̄[i,:] += (n̄_i / n_i)·X[i,:],
// skipping zero-norm rows (subgradient 0, matching the forward guard).
func opRowNormsVJP[T elem](x, out *spec[T]) func() {
	body := func(_, lo, hi int) {
		xd, xg := x.dense, x.gdense
		k := xd.Cols
		for i := lo; i < hi; i++ {
			n := out.vec[i]
			if n == 0 {
				continue
			}
			c := out.gvec[i] / n
			if c == 0 {
				continue
			}
			row := xd.Data[i*k : (i+1)*k]
			grow := xg.Data[i*k : (i+1)*k]
			for t, v := range row {
				grow[t] += c * v
			}
		}
	}
	return func() { par.Range(out.rows, body) }
}

// opGINCombineVJP handles Z = agg + (1+ε)·H: both dense cotangents
// accumulate, and ε̄ += Σ Z̄ ⊙ H reduces over per-worker partials. On a row
// block H may be taller than Z, whose rows are H's first ones.
func opGINCombineVJP[T elem](agg, h, eps, out *spec[T], rs *redScratch[T]) func() {
	body := func(worker, lo, hi int) {
		c := 1 + eps.dense.Data[0]
		og, ag, hg, hd := out.gdense.Data, agg.gdense.Data, h.gdense.Data, h.dense.Data
		var local T
		for i := lo; i < hi; i++ {
			g := og[i]
			ag[i] += g
			hg[i] += c * g
			local += g * hd[i]
		}
		rs.sums[worker] += local
	}
	n := out.rows * out.cols
	grad := eps.grad
	return func() {
		rs.ensure()
		par.Range(n, body)
		grad.Data[0] += rs.fold()
	}
}
