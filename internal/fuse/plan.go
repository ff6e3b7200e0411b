package fuse

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// Options configures plan compilation.
type Options struct {
	// Train derives the backward pass by reverse traversal of the op list
	// and allocates cotangent buffers for every node. Inference plans skip
	// both.
	Train bool
	// SpanPrefix prefixes the obs span emitted around every executed op,
	// e.g. "va.l0." → spans "va.l0.Psi", "va.l0.Psi.bwd".
	SpanPrefix string
	// DType selects the element width of the compiled kernels. F64 (the
	// zero value) is the default double-precision path, bitwise-identical
	// to the pre-dtype runtime. F32 compiles the plan against float32
	// buffers and kernels: inputs, parameters and cotangents are cast at
	// the plan boundary, parameter gradients are flushed back into the
	// float64 Grad accumulators after each backward pass.
	DType tensor.DType
	// NoAttnFuse disables the fused SDDMM+softmax+SpMM attention rule, and
	// with it the fused backward of GAT's chain: the plan runs one op per
	// node, and one VJP per node backward — the reference the fused
	// lowerings are held to bit for bit.
	NoAttnFuse bool
}

// PlanStats describes a compiled plan: the audit trail connecting the
// runtime back to the Section 6.2 analysis, and the measured op counts the
// cost model consumes instead of closed-form guesses.
type PlanStats struct {
	ForwardOps     int            // kernels launched per forward step
	BackwardOps    int            // kernels launched per backward step
	FusedVirtual   int            // virtual nodes folded into samplers
	SoftmaxFused   int            // mask→softmax pairs peephole-fused beyond the paper's rule
	AttnFused      int            // score→softmax→aggregate chains fused into single sweeps
	Groups         []string       // fusion groups, Analyze formatting
	OpCounts       map[string]int // forward op vocabulary histogram
	WorkspaceWords int64          // elements of workspace held by the plan (width per DType)
	DType          tensor.DType   // element width the plan was compiled for
	ForwardFlops   int64          // estimated flops per forward step (opCost sums)
	ForwardBytes   int64          // estimated bytes moved per forward step (opBytes sums)
	BackwardFlops  int64          // estimated flops per backward step
	BackwardBytes  int64          // estimated bytes moved per backward step
}

// WorkspaceBytes returns the plan's held workspace in bytes, at the
// element width the plan was compiled for.
func (s PlanStats) WorkspaceBytes() int64 { return s.DType.Size() * s.WorkspaceWords }

// Plan is a compiled, reusable executable form of a Graph: an ordered op
// list over planned buffers. Forward binds the input feature matrix and runs
// the op list; Backward (training plans) runs the reverse-derived VJP list
// and returns the input cotangent. A plan runs in a Step — alone, or as one
// of a model's layers — whose layout gives its buffers storage on the first
// run. All returned tensors are owned by the step and are valid until a
// later position of the same step reuses their storage: for a plan alone,
// the output until its next Forward, the input cotangent — whose storage
// forward buffers share — until its next Forward or Backward. Bind points
// the plan at another adjacency without compiling it again.
//
// A plan takes and returns matrices at its own width (ForwardTyped,
// BackwardTyped — what the consecutive plans of a model hand each other) or
// as float64, the public matrix type (Forward, Backward, Output, InputGrad).
// The typed buffers live behind the plan's boundary (exec), which is the one
// place that knows whether the plan aliases the caller's storage or casts
// across it.
type Plan struct {
	Name  string
	train bool

	leaves   []*meta // bound per call: the dense input, or the graph's FromTables nodes and row views
	output   *meta
	fwd, bwd []planOp
	// offDiag: the plan runs on an off-diagonal rank of a process grid, which
	// holds no dense block — Forward and Backward take and return nil there.
	offDiag bool

	x boundary

	g      *Graph              // the plan's own copy: its pattern and the shapes over it
	rebind func(a *sparse.CSR) // redoes what the pattern decides (Bind)
	// unitSensitive: the backward list holds, or leaves out, a weighted
	// mask's VJP because A was a pattern (unit) or held values at compile
	// time.
	unitSensitive, unit bool

	ws    *tensor.Arena
	stats PlanStats

	// The plan's part of its step's workspace (workspace.go).
	step      *Step
	spans     []*span // every planned buffer, the ports below included
	in        []*span // per leaf, its value as the plan reads it: narrowed storage where a float64 one crosses
	outs      []*span // the values of its cut's outs, the output's among them
	out, outF *span   // the output value, and its float64 copy (casting plans)
	gin, ginF *span   // the input cotangent, and its float64 copy (casting training plans)
	og        *span   // the output cotangent as the plan reads it
	nf, nb    int     // positions of its forward part (ops, widen) and backward part (seed, ops, widen)
	fo, bo    int     // where its step places the two parts
	// zbar: σ's operand cotangent, where σ is the output, its cotangent is
	// read by reference and its VJP is zbar's one writer — what the step may
	// place over the cotangent the next plan hands in (Step.layout).
	zbar *span
	// cast: narrower than float64, so float64 matrices cross by copy; the
	// wide flags say which crossings its step planned that copy for.
	cast, wideIn, wideOut, wideGin bool
	build                          func() // builds the op bodies over the storage its step gave the buffers
	stepBytes                      int64  // bytes of its step's slab attributed to the plan (Step.place)
	poison, keepLife               bool   // compiled under the test hooks poisonDead, keepLifetimes
	// handsOuts: the plan hands the values of its cut's outs on typed (a
	// prefix plan), so its output is read after any widen.
	handsOuts bool

	ranForward bool
	released   bool
	live       bool // counted in LivePlans
}

// at returns the step position of the plan's position i.
func (p *Plan) at(i int) int {
	if i < p.nf {
		return p.fo + i
	}
	return p.bo + i - p.nf
}

// end returns the step position of the plan's last position.
func (p *Plan) end() int { return p.at(p.nf + p.nb - 1) }

// boundary is the face of a plan's typed execution state.
type boundary interface {
	bind(i int, h tensor.Typed)    // make h the value of leaf i in the coming forward sweep
	refresh()                      // round the parameter masters into the plan's working copies
	seed(g tensor.Typed)           // reset cotangents, load the output cotangent
	settle()                       // flush parameter gradients into their float64 masters
	native(back bool) tensor.Typed // the forward result — back: the input cotangent — at the plan's width
	dense(back bool) *tensor.Dense // the same as float64
	values() []tensor.Typed        // the values of the cut's outs (a vector as one column), uncopied
	release(ws *tensor.Arena)
}

// exec is the execution state of a plan instantiated at element type T, and
// the plan boundary. A matrix that arrives at width T is bound, not copied:
// the input of a forward sweep always, the output cotangent where nothing
// inside the DAG accumulates into it. At float64 that is every matrix, and
// parameters and their gradient accumulators alias the master ParamRef
// storage as well. At any narrower width the plan is mixed-precision: the
// parameter values are rounded into plan-owned buffers on every Forward (so
// optimizer updates are observed), gradients accumulate in zeroed shadows
// that are flushed with Grad[i] += float64(shadow[i]) after every Backward
// (preserving the accumulate semantics across layers and steps), and a
// float64 matrix crosses through a conversion buffer — the narrowed input,
// the widened result, the widened input cotangent — which is a buffer of the
// step where the step says one crosses: a layer between two others of its
// width in a model's step has none.
// A plan compiled FromTables binds each of its leaves as it binds the
// input. On an off-diagonal rank of a process grid (offDiag) the input and
// output nodes do not exist: only the parameters cross the boundary.
type exec[T elem] struct {
	plan    *Plan      // whose workspace the conversion buffers come from, and count in
	leaves  []*spec[T] // bound per call; leaves[0] is the input of a plan that starts there
	output  *spec[T]
	outs    []*spec[T] // the cut's outs (values)
	offDiag bool
	// seedByRef: the output cotangent is read from the caller's matrix, as
	// the input is — float64 plans whose output feeds nothing inside the DAG.
	seedByRef bool

	// Casting plans only; empty when T is float64.
	inN        []*tensor.Mat[T]     // narrowed leaves: views of the in ports, empty unless the step plans a crossing
	outF, ginF *tensor.Mat[float64] // widened forward result / input cotangent, likewise
	shadows    []shadow[T]          // parameter masters → rounded working copies
	flushes    []shadow[T]          // gradient shadows → master Grad accumulators
	narrow     castSweep[T, float64]
	widen      castSweep[float64, T]
	same       castSweep[T, T] // an output cotangent arriving at width T
	spread     spread[T]       // the widen of an overlaid pair (Step.place), in place
	// spreadOut, spreadGin: the overlaid copy holds the latest forward result,
	// input cotangent, and its source is gone: widened once per sweep.
	spreadOut, spreadGin bool

	zero zeroSweep[T] // cotangent buffers zeroed before each backward

	mats      []*tensor.Mat[T] // the parameter copies acquired from the workspace
	lay       *layout[T]       // the plan's planned buffers of width T
	adj, adjT held[T]          // A's values at width T, and in Aᵀ's order
	wire      held[float64]    // staging words of a casting grid plan's collectives
}

// shadow pairs a float64 master with the plan-owned copy at width T.
type shadow[T elem] struct {
	master *tensor.Dense
	local  *tensor.Mat[T]
}

// castSweep is tensor.Cast split over par.Range. A casting plan converts an
// n×k matrix wherever a float64 one crosses its boundary; one worker doing
// that is a visible share of a step once the sweeps between the crossings
// are fast. Element-wise, so the split cannot change a bit. The loop body is
// built on first use and kept, so a steady-state crossing allocates nothing.
type castSweep[D, S elem] struct {
	dst  []D
	src  []S
	body func(worker, lo, hi int)
}

func (c *castSweep[D, S]) run(dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("fuse: cast length mismatch %d vs %d", len(dst), len(src)))
	}
	if c.body == nil {
		c.body = func(_, lo, hi int) { tensor.Cast(c.dst[lo:hi], c.src[lo:hi]) }
	}
	c.dst, c.src = dst, src
	par.Range(len(src), c.body)
	c.dst, c.src = nil, nil // keep no hold on the caller's matrix
}

// spread is the widen of an overlaid pair: the source lies on the first half
// of its float64 copy's words (Step.place), so the copy is written top-down
// in halving rounds — [⌈hi/2⌉, hi), then the half below it, and so on down to
// element 0. A round writes bytes from 8⌈hi/2⌉ ≥ 4·hi on, past every source
// element it has not yet read, and reads below that: each round is one
// parallel sweep with nothing shared between its reads and its writes.
// Element-wise, so the bits are tensor.Cast's. The loop body is built on
// first use and kept, like castSweep's.
type spread[T elem] struct {
	dst  []float64
	src  []T
	lo   int // the current round's first element
	body func(worker, lo, hi int)
}

func (c *spread[T]) run(dst []float64, src []T) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("fuse: cast length mismatch %d vs %d", len(dst), len(src)))
	}
	if c.body == nil {
		c.body = func(_, lo, hi int) { tensor.Cast(c.dst[c.lo+lo:c.lo+hi], c.src[c.lo+lo:c.lo+hi]) }
	}
	c.dst, c.src = dst, src
	for hi := len(src); hi > 0; hi = c.lo {
		c.lo = (hi + 1) / 2
		if hi == 1 {
			c.lo = 0 // element 0 reads its source word before writing over it
		}
		par.Range(hi-c.lo, c.body)
	}
	c.dst, c.src = nil, nil
}

// zeroSweep clears a set of a training plan's cotangent buffers — at the seed
// of every backward pass, or just before the op that first writes them
// (layout.clears) — joined end to end into one index space split over
// par.Range. At training shapes that is several n×k matrices, as much memory
// as a sweep writes, so it gets the workers a sweep does. The buffers are the
// plan's own, added at compile time, and so is the loop body (the method
// value bound by the first add): a steady-state clear allocates nothing.
type zeroSweep[T elem] struct {
	bufs [][]T
	ends []int // ends[b]: one past buffer b's last word in the joined space
	body func(worker, lo, hi int)
}

func (z *zeroSweep[T]) add(buf []T) {
	end := len(buf)
	if len(z.ends) > 0 {
		end += z.ends[len(z.ends)-1]
	} else {
		z.body = z.clear
	}
	z.bufs, z.ends = append(z.bufs, buf), append(z.ends, end)
}

// clear zeroes words [lo, hi) of the joined space.
func (z *zeroSweep[T]) clear(_, lo, hi int) {
	b := sort.SearchInts(z.ends, lo+1) // the buffer holding word lo
	for ; lo < hi; b++ {
		start := z.ends[b] - len(z.bufs[b])
		end := min(hi, z.ends[b])
		clear(z.bufs[b][lo-start : end-start])
		lo = end
	}
}

func (z *zeroSweep[T]) run() {
	if len(z.ends) > 0 {
		par.Range(z.ends[len(z.ends)-1], z.body)
	}
}

// alias views d as a matrix of T when T is float64 — same layout, same
// storage, same identity. At any other width it reports false and the
// boundary has to copy.
func alias[T elem](d *tensor.Dense) (*tensor.Mat[T], bool) {
	m, ok := any((*tensor.Mat[float64])(d)).(*tensor.Mat[T])
	return m, ok
}

// asNative views v as a matrix of T when it is one.
func asNative[T elem](v tensor.Typed) (*tensor.Mat[T], bool) {
	if v.F32 != nil {
		m, ok := any(v.F32).(*tensor.Mat[T])
		return m, ok
	}
	return alias[T](v.F64)
}

// typed hands a plan's matrix out under its width tag, uncopied.
func typed[T elem](m *tensor.Mat[T]) tensor.Typed {
	if m32, ok := any(m).(*tensor.Mat[float32]); ok {
		return tensor.Typed{F32: m32}
	}
	return tensor.Typed{F64: (*tensor.Dense)(any(m).(*tensor.Mat[float64]))}
}

// persist returns the bytes the plan holds outside its step's slab: the
// parameter copies, A's values at width T and in Aᵀ's order, and a casting
// grid plan's staging words.
func (e *exec[T]) persist() int64 {
	var z T
	var words int64
	for _, m := range e.mats {
		words += int64(len(m.Data))
	}
	words += int64(len(e.adj.buf) + len(e.adjT.buf))
	return words*int64(unsafe.Sizeof(z)) + 8*int64(len(e.wire.buf))
}

func (e *exec[T]) bind(i int, h tensor.Typed) {
	if e.offDiag {
		return
	}
	m, ok := asNative[T](h)
	if !ok {
		m = e.inN[i]
		if len(m.Data) != len(h.F64.Data) {
			panic("fuse: plan " + e.plan.Name + ": a float64 input where its step planned none")
		}
		e.narrow.run(m.Data, h.F64.Data)
	}
	if s := e.leaves[i]; s.node.Kind == Vector {
		s.vec = m.Data
	} else {
		s.dense = m
	}
}

// refresh starts a forward sweep: its result is not yet widened.
func (e *exec[T]) refresh() {
	e.spreadOut = false
	for _, s := range e.shadows {
		e.narrow.run(s.local.Data, s.master.Data)
	}
}

func (e *exec[T]) seed(g tensor.Typed) {
	e.spreadGin = false
	e.zero.run()
	if e.offDiag {
		return
	}
	m, ok := asNative[T](g)
	switch {
	case e.seedByRef:
		e.output.gdense = m
	case ok:
		e.same.run(e.output.gdense.Data, m.Data)
	default:
		e.narrow.run(e.output.gdense.Data, g.F64.Data)
	}
}

func (e *exec[T]) settle() {
	for _, s := range e.flushes {
		for i, v := range s.local.Data {
			s.master.Data[i] += float64(v)
		}
	}
}

func (e *exec[T]) native(back bool) tensor.Typed {
	switch {
	case e.offDiag:
		return tensor.Typed{}
	case back:
		return typed(e.leaves[0].gdense)
	}
	return typed(e.output.dense)
}

func (e *exec[T]) dense(back bool) *tensor.Dense {
	if e.offDiag {
		return nil
	}
	src, buf, cp, spread := e.output.dense, e.outF, e.plan.outF, &e.spreadOut
	if back {
		src, buf, cp, spread = e.leaves[0].gdense, e.ginF, e.plan.ginF, &e.spreadGin
	}
	if d, ok := any(src).(*tensor.Mat[float64]); ok {
		return (*tensor.Dense)(d)
	}
	if len(buf.Data) != len(src.Data) {
		panic("fuse: plan " + e.plan.Name + ": a float64 result where its step planned none")
	}
	switch {
	case cp.inner == nil:
		e.widen.run(buf.Data, src.Data)
	case !*spread:
		e.spread.run(buf.Data, src.Data)
		*spread = true
	}
	return (*tensor.Dense)(buf)
}

func (e *exec[T]) values() []tensor.Typed {
	out := make([]tensor.Typed, len(e.outs))
	for i, s := range e.outs {
		m := s.dense
		if s.node.Kind == Vector {
			m = &tensor.Mat[T]{Rows: len(s.vec), Cols: 1, Data: s.vec}
		}
		out[i] = typed(m)
	}
	return out
}

func (e *exec[T]) release(ws *tensor.Arena) {
	for _, m := range e.mats {
		tensor.ReleaseMat(ws, m)
	}
	e.adj.release(ws)
	e.adjT.release(ws)
	e.wire.release(ws)
	e.mats = nil
	e.zero = zeroSweep[T]{}
}

// Compile lowers the graph into an executable plan: it runs the Section 6.2
// fusion analysis, fuses mask→softmax pairs into single sampling sweeps (a
// peephole beyond the paper's rule), plans every intermediate with the
// interval it is live over, composes the virtual score evaluators, and emits
// the forward op list plus — for training plans — the reverse-traversal
// backward op list. The plan is a step of its own (Step) until a model Sets it into
// one; its step gives the intermediates storage from the process-wide
// workspace arena when it first runs, not here. The whole lowering exists
// once, generic over the element type, and is instantiated here per
// Options.DType. The plan keeps a copy of the graph's shapes, which Bind
// changes; the graph itself stays as it was built.
func (g *Graph) Compile(opt Options) (*Plan, error) {
	if g.output == nil {
		return nil, fmt.Errorf("fuse: graph %q has no output", g.Name)
	}
	if g.input == nil {
		return nil, fmt.Errorf("fuse: graph %q has no dense input", g.Name)
	}
	c, cons := g.cut(), g.dag.consumers()
	if g.from != nil {
		if opt.Train || g.grid != nil {
			return nil, fmt.Errorf("fuse: graph %q: a plan from bound nodes is a single-node inference plan", g.Name)
		}
		need := c.needs(g)
		if need[g.input] && !slices.Contains(g.from, g.input) {
			return nil, fmt.Errorf("fuse: graph %q: the nodes it starts from do not cover what it reads of the input", g.Name)
		}
		computes := func(n *Node) bool { return need[n] && !slices.Contains(g.from, n) }
		for _, n := range g.from {
			if slices.ContainsFunc(cons[n], func(c *Node) bool { return rowLocal[c.Op] && computes(c) }) {
				return nil, fmt.Errorf("fuse: graph %q: an op reads table %q row for row, which a block's rows do not", g.Name, n.ID)
			}
		}
	}
	for _, n := range g.dag.Nodes() {
		switch n.Op {
		case "spmm-max", "spmm-min", "spmm-mean":
			if opt.Train || g.grid != nil {
				return nil, fmt.Errorf("fuse: graph %q: semiring aggregation %q has no VJP and no grid reducer: it needs a single-node inference plan", g.Name, n.ID)
			}
		}
		if opt.Train && n != g.adj && (n.Kind == Sparse || n.Kind == Virtual) && len(cons[n]) > 1 {
			return nil, fmt.Errorf("fuse: graph %q: %s node %q has %d consumers; training plans require single-consumer sparse/virtual nodes",
				g.Name, n.Kind, n.ID, len(cons[n]))
		}
	}
	p, err := lower(g.clone(), opt, cons, c, workspace)
	if err == nil {
		metrics.PlanCacheMisses.Inc()
		livePlans.Add(1)
		p.live = true
	}
	return p, err
}

// workspace is the arena every compiled plan acquires its storage from and
// releases it to: a plan compiled after another was released recycles the
// released one's buffers.
var workspace = tensor.NewArena()

// livePlans counts the plans Compile has built and Release not yet released.
var livePlans atomic.Int64

// LivePlans returns the number of plans Compile has built and Release has not
// yet released: what the process's plans hold of the workspace.
func LivePlans() int { return int(livePlans.Load()) }

// lower instantiates compile at the element type of opt.DType, over storage
// from ws.
func lower(g *Graph, opt Options, cons map[*Node][]*Node, c cut, ws *tensor.Arena) (*Plan, error) {
	if opt.DType != tensor.F64 {
		return compile[float32](g, opt, cons, c, ws)
	}
	return compile[float64](g, opt, cons, c, ws)
}

// compile lowers the part of g between the cut's leaves and outs; a node
// outside it is neither given buffers nor computed. It derives the plan's
// structure from the DAG once — the op order, the fusion decisions, the
// composed scores, the buffers and their intervals — and leaves everything
// the pattern decides to the plan's rebind, which it calls on g's pattern
// and Bind on any later one: the op closures read the pattern's state
// (pat, nnz, cuts, tr, cutsT, adjT below) when rebind builds them.
func compile[T elem](g *Graph, opt Options, cons map[*Node][]*Node, c cut, ws *tensor.Arena) (*Plan, error) {
	groups := Analyze(g.dag) // panics if a virtual escapes — a builder bug
	need := c.needs(g)
	leaf := make(map[*Node]bool, len(c.leaves))
	for _, n := range c.leaves {
		leaf[n] = true
	}
	// nodes are the nodes the plan computes or reads, in topological order.
	nodes := slices.DeleteFunc(slices.Clone(g.dag.Nodes()), func(n *Node) bool { return !need[n] })

	// Peephole: a softmax whose only producer chain is a single-consumer
	// mask compiles to one fused sampling sweep; the mask's value buffer is
	// never materialized (its cotangent still is, for training).
	fusedMask := make(map[*Node]bool)
	for _, n := range nodes {
		if n.Op == "softmax" {
			if in := n.Inputs[0]; in.Op == "mask" && len(cons[in]) == 1 {
				fusedMask[in] = true
			}
		}
	}

	// Attention-fusion rule: an spmm whose sparse operand is a
	// single-consumer softmax over a fused mask (score→softmax→aggregate,
	// the GAT/AGNN shape) or a single-consumer mask directly (score→
	// aggregate, the VA shape) compiles to ONE sweep per row block that
	// samples the composed scores, normalizes and aggregates while the row
	// is hot. Inference plans never materialize a per-edge score tensor at
	// all, and neither do training plans under GAT's fused backward, which
	// recomputes the scores from each row's max and sum; other training
	// plans write the normalized scores into the sparse node's value buffer
	// inside the same sweep, for the per-op VJPs to read. Per-row
	// arithmetic order matches the unfused sample-then-spmm sequence
	// exactly, so fused plans are bitwise-identical to unfused ones.
	attnAgg, attnSrc := attnFusion(g, nodes, cons, fusedMask, opt.NoAttnFuse)
	// Backward, the VJP chain under a fused GAT aggregation lowers to two
	// sweeps as well (attnBackward, opAttnFusedVJP); the chain's sparse and
	// virtual nodes then get neither a VJP nor a cotangent buffer of their own.
	var attnBwd map[*Node]bool
	if opt.Train {
		attnBwd = attnBackward(attnAgg, cons)
	}

	// aliased: at float64 the boundary aliases caller storage (inputs,
	// parameters, adjacency values); at any other width it casts into
	// plan-owned buffers.
	_, aliased := alias[T](nil)
	// On a process grid every rank compiles the same DAG; here says which
	// dense and vector nodes this rank holds (grid.go).
	grid := g.grid
	diag := grid == nil || grid.Diag()
	here := func(n *Node) bool { return diag || !onDiagonal(n) }
	_, _, outColl := collective(g.output.Op) // a reduce's cotangent is its partial's
	lay := &layout[T]{}
	e := &exec[T]{offDiag: !diag, seedByRef: aliased && len(cons[g.output]) == 0 && !outColl, lay: lay}
	p := &Plan{Name: g.Name, train: opt.Train, g: g,
		output: g.md(g.output), x: e, ws: ws, offDiag: !diag,
		cast: !aliased, poison: poisonDead, keepLife: keepLifetimes}
	p.stats.DType = opt.DType
	p.unit = g.pat.Val == nil
	p.handsOuts = len(c.outs) != 1 || c.outs[0] != g.output
	e.plan, lay.p = p, p

	// sp returns (creating on demand) the typed state of a node. Creation
	// order does not matter: op closures capture the pointer, the
	// allocation loop below fills the fields.
	specs := make(map[*Node]*spec[T], len(g.meta))
	sp := func(n *Node) *spec[T] {
		s := specs[n]
		if s == nil {
			s = &spec[T]{meta: g.md(n)}
			specs[n] = s
		}
		return s
	}
	e.output = sp(g.output)
	for _, n := range c.leaves {
		p.leaves, e.leaves = append(p.leaves, g.md(n)), append(e.leaves, sp(n))
	}
	for _, n := range c.outs {
		e.outs = append(e.outs, sp(n))
	}
	// row returns the state an op reads row i of a node from along the
	// pattern's rows. A plan FromTables binds a second leaf after the tables
	// for each table some op reads so (readsRows): the table's rows for the
	// pattern's rows, row i for row i. Every other read, and every read of
	// any other plan, is the node's own state.
	row := sp
	var rowViews []*meta // their shapes follow the pattern's rows
	var rowOf []int      // the index in c.leaves of each row view's table
	if g.from != nil {
		views := make(map[*Node]*spec[T])
		for j, n := range c.leaves {
			if readsRows(n, cons) {
				m := *g.md(n)
				m.rows = g.pat.Rows
				views[n] = &spec[T]{meta: &m}
				rowViews, rowOf = append(rowViews, &m), append(rowOf, j)
				p.leaves, e.leaves = append(p.leaves, &m), append(e.leaves, views[n])
			}
		}
		row = func(n *Node) *spec[T] {
			if v := views[n]; v != nil {
				return v
			}
			return sp(n)
		}
	}
	// The in ports: each leaf's value as the plan reads it. Where the step has
	// a float64 matrix cross into a casting plan, the port is the storage of
	// the narrowed copy; otherwise it holds nothing and only says how long the
	// plan reads what it was handed.
	ports := make([]*buffer[T], len(e.leaves))
	for i, s := range e.leaves {
		cols := s.cols
		if s.node.Kind == Vector {
			cols = 1
		}
		ports[i] = lay.add(s.node.ID+".in", func() int {
			if !p.wideIn || !diag {
				return 0
			}
			return s.rows * cols
		})
		e.inN = append(e.inN, ports[i].mat(s.rows, cols))
		p.in = append(p.in, &ports[i].span)
		touch(0, ports[i])
	}

	// mat acquires a parameter's copy at width T: its shape is the
	// parameter's, whatever the pattern.
	mat := func(r, c int) *tensor.Mat[T] {
		m := tensor.AcquireMat[T](ws, r, c)
		e.mats = append(e.mats, m)
		return m
	}
	// The pattern the plan is bound to, and what the ops read of it; rebind
	// sets them all. cuts are the nnz-balanced chunk boundaries every sparse
	// sweep uses, computed once per pattern — by the first sweep that splits
	// — so steady-state ops pay zero scan cost. (The checked column index the
	// sweeps gather through is the pattern's own, pat.Index(), scanned once
	// as well.)
	pat := g.pat
	var nnz int
	cuts := par.NewCuts(0, func(i int) int64 { return int64(pat.RowNNZ(i)) })
	nnzWords := func() int { return nnz }
	rowWords := func() int { return pat.Rows }

	// The adjacency values (weighted masks, adjacency SpMM) at width T,
	// resolved on first use under each pattern and shared by every op that
	// needs them: A's own at float64, converted once into held storage
	// otherwise. A pattern has none (nil): a weighted mask over it runs as a
	// pattern-only one — no multiply per edge, no VJP, no copy of values at
	// width T — and an SpMM over it reads ones. A training plan's backward
	// list holds the mask's VJP or not by the adjacency it was compiled over
	// (Plan.unit), and Bind refuses one that flips it. A valued A whose values
	// are all 1 runs the multiply: x·1 is x, the same bits.
	adjOK := false
	adjVals := func() []T {
		if pat.Val == nil {
			return nil
		}
		if v, ok := any(pat.Val).([]T); ok {
			return v
		}
		if !adjOK {
			tensor.Cast(e.adj.get(ws, nnz), pat.Val)
			adjOK = true
		}
		return e.adj.buf[:nnz]
	}
	maskWeights := func(mask *spec[T]) []T {
		if !mask.weighted {
			return nil
		}
		return adjVals()
	}

	// The step's buffers are planned (workspace.go): each node's value, row
	// statistics and cotangent is a buffer of the layout, which gets storage
	// once the op lists say when each is live.
	val, stat, grad := make(map[*Node]*buffer[T]), make(map[*Node]*buffer[T]), make(map[*Node]*buffer[T])
	for i, n := range c.leaves {
		val[n] = ports[i]
	}
	// value and cotangent plan the storage of a dense or vector node, sized
	// by the node's shape under the bound pattern.
	value := func(n *Node) {
		s := sp(n)
		if n.Kind == Vector {
			val[n] = lay.add(n.ID, func() int { return s.rows })
			val[n].view(&s.vec)
		} else {
			val[n] = lay.add(n.ID, func() int { return s.rows * s.cols })
			s.dense = val[n].mat(s.rows, s.cols)
		}
	}
	cotangent := func(n *Node) {
		s := sp(n)
		if n.Kind == Vector {
			grad[n] = lay.add(n.ID+".grad", func() int { return s.rows })
			grad[n].view(&s.gvec)
		} else {
			grad[n] = lay.add(n.ID+".grad", func() int { return s.rows * s.cols })
			s.gdense = grad[n].mat(s.rows, s.cols)
		}
		grad[n].zero = true
	}
	// The casting plan's parameter gradients, zeroed at every seed.
	var paramGrads [][]T

	// Plan buffers and compose virtual entry evaluators, in topological
	// (insertion) order so every node's inputs are ready.
	for _, n := range nodes {
		s := sp(n)
		_, bcast, coll := collective(n.Op)
		switch {
		case !here(n):
			// lives on the diagonal rank of this grid row/column
		case n == g.adj:
			// values resolve lazily via adjVals
		case leaf[n]:
			// The value is bound per step (exec.bind); the cotangent is
			// what Backward returns.
			if opt.Train {
				cotangent(n)
			}
		case s.hasParam:
			if aliased {
				// dense aliases the parameter value; gradients go
				// straight to param.Grad
				s.dense, _ = alias[T](s.param.Value)
				s.grad, _ = alias[T](s.param.Grad)
				break
			}
			s.dense = mat(s.rows, s.cols)
			e.shadows = append(e.shadows, shadow[T]{master: s.param.Value, local: s.dense})
			if opt.Train {
				s.grad = mat(s.rows, s.cols)
				paramGrads = append(paramGrads, s.grad.Data)
				e.flushes = append(e.flushes, shadow[T]{master: s.param.Grad, local: s.grad})
			}
		case n.Kind == Virtual:
			s.entry = composeEntry(sp, row, n)
		case n.Kind == Sparse:
			// Attention-fused sparse nodes keep the scores in per-row
			// scratch inside the fused sweep. They materialize values only
			// for a training plan whose backward reads them (the per-op
			// VJPs); under the fused GAT backward, which recomputes them,
			// the softmax keeps its row statistics instead, 2·n words.
			switch {
			case attnSrc[n] && attnBwd[n]:
				stat[n] = lay.add(n.ID+".stats", func() int { return 2 * pat.Rows })
				stat[n].view(&s.stats)
			case !fusedMask[n] && !(attnSrc[n] && !opt.Train):
				val[n] = lay.add(n.ID, nnzWords)
				val[n].view(&s.vals)
			}
		case coll && diag && !g.gathered(n):
			// On the diagonal a collective node is its operand, value and
			// cotangent: a broadcast copy there is the source itself, and
			// the ranks' cotangents reduce into the source's in place; a
			// partial sum's only consumer is the reduce that overwrites it.
			// (A broadcast's value is bound per step — opBcastForward — as
			// the source may be the plan input.) A gathered copy is taller
			// than its source and has buffers of its own.
			src := n.Inputs[0]
			val[n], grad[n] = val[src], grad[src]
			s.gdense = sp(src).gdense
			if b := grad[n]; b != nil && n.Kind == Vector {
				b.view(&s.gvec)
			}
			if !bcast {
				s.dense = sp(src).dense
			}
		default: // dense or vector compute node
			if n.Op == "sigma" && (s.act.Name == "relu" || s.act.isIdentity()) &&
				n.Inputs[0].Op != "input" && !leaf[n.Inputs[0]] && len(cons[n.Inputs[0]]) == 1 {
				// Piecewise-linear σ over a pre-activation nobody else reads
				// runs in place: σ′ is as readable off max(z, 0) as off z.
				s.dense, val[n] = sp(n.Inputs[0]).dense, val[n.Inputs[0]]
			} else {
				value(n)
			}
			if opt.Train && (n != g.output || !e.seedByRef) {
				cotangent(n)
				// Off the diagonal a partial sum's cotangent arrives whole,
				// by broadcast: nothing accumulates into it.
				grad[n].zero = diag || n.Op != "spmm"
			}
		}
	}
	// The plan's results, which its step may hand its caller; the output
	// cotangent is loaded whole by the seed.
	for _, n := range c.outs {
		if b := val[n]; b != nil {
			p.outs = append(p.outs, &b.span)
		}
	}
	if b := grad[g.output]; b != nil {
		b.zero = false
	}
	// The rest of the plan's ports: its output value and, casting, the float64
	// copy a crossing widens it into; training, the output cotangent as the
	// backward reads it — handed in by reference where nothing inside the DAG
	// accumulates into it (seedByRef), else loaded into its buffer at the seed
	// — and the input cotangent with its float64 copy.
	var outF, ginF *buffer[float64]
	var og *buffer[T]
	if b := val[g.output]; b != nil {
		p.out = &b.span
	}
	if p.cast {
		outF = newBuffer[float64](p, g.output.ID+".f64", func() int {
			if !p.wideOut || val[g.output] == nil {
				return 0
			}
			return e.output.rows * e.output.cols
		})
		e.outF, p.outF = outF.mat(e.output.rows, e.output.cols), &outF.span
	}
	if opt.Train {
		og = lay.add(g.output.ID+".grad.in", func() int { return 0 })
		p.og = &og.span
		if e.seedByRef {
			grad[g.output] = og
		}
		in := e.leaves[0]
		if b := grad[in.node]; b != nil {
			p.gin = &b.span
		}
		if p.cast {
			ginF = newBuffer[float64](p, in.node.ID+".grad.f64", func() int {
				if !p.wideGin || grad[in.node] == nil {
					return 0
				}
				return in.rows * in.cols
			})
			e.ginF, p.ginF = ginF.mat(in.rows, in.cols), &ginF.span
		}
	}
	// Cotangents of the sparse and virtual nodes, consumers first. Each has
	// one consumer (checked in Compile), whose VJP writes it once, and its
	// own VJP reads it once; where that VJP is element-wise onto an operand's
	// cotangent the operand shares the buffer and the VJP runs in place
	// (cotangentOperands) — an attention chain threads one nnz-sized buffer
	// from Ψ̄ down to its vector operands.
	if opt.Train {
		for idx := len(nodes) - 1; idx >= 0; idx-- {
			n := nodes[idx]
			if n == g.adj || (n.Kind != Sparse && n.Kind != Virtual) || attnBwd[n] {
				continue
			}
			if grad[n] == nil {
				grad[n] = lay.add(n.ID+".grad", nnzWords)
				grad[n].view(&sp(n).gvals)
			}
			for _, in := range cotangentOperands(n) {
				grad[in] = grad[n]
				grad[n].view(&sp(in).gvals)
			}
		}
	}
	// The grid plan's collectives — rw those along a row of more than one
	// rank, else nil — and the row-statistics vector a softmax sweep
	// exchanges through them: a buffer per op, live inside it.
	var w, rw *wire[T]
	rowStat := func(n *Node, dst *[]T) *buffer[T] {
		b := lay.add(n.ID+".rowstat", rowWords)
		b.view(dst)
		return b
	}
	// widest is the widest dense or vector node: what crosses a casting grid
	// plan's staging words is such a node's buffer, at most as high as the
	// block's longer side (the pattern's nodes are as wide as the block and
	// never cross).
	widest := 1
	if grid != nil {
		w = &wire[T]{grid: grid}
		if g.lowered(AlongRow) {
			rw = w
		}
		for n, m := range g.meta {
			if n.Kind == Dense || n.Kind == Vector {
				widest = max(widest, m.cols)
			}
		}
	}

	// The backward pass's column sweeps (Sᵀ·X products, column sums) run
	// over the transposed pattern, which is the adjacency object's own —
	// computed once, shared by every training plan over it — and read the
	// sparse node's current values through it. Only an adjacency SpMM wants
	// A's values laid out in Aᵀ's order, once per pattern, as adjT.
	var tr *transposedRows[T]
	cutsT := par.NewCuts(0, func(j int) int64 { return int64(tr.patT.RowNNZ(j)) })
	var adjT []T
	adjSpMM := opt.Train && slices.ContainsFunc(nodes, func(n *Node) bool { return n.Op == "spmm" && n.Inputs[0] == g.adj })

	// reads lists, after uses, the buffers an op reads through operand m:
	// m's own and, where m is evaluated inside the reading op (inline), its
	// operands', on down.
	var reads func(uses []*buffer[T], m *Node, inline func(*Node) bool) []*buffer[T]
	reads = func(uses []*buffer[T], m *Node, inline func(*Node) bool) []*buffer[T] {
		uses = append(uses, val[m], stat[m])
		if inline(m) {
			for _, in := range m.Inputs {
				uses = reads(uses, in, inline)
			}
		}
		return uses
	}
	// Forward, a virtual node and a sparse node without an op of its own (a
	// fused mask, an attention-fused score) are evaluated inside the op that
	// reads them; backward, a virtual node's VJP re-evaluates its operands.
	inlineFwd := func(m *Node) bool { return m.Kind == Virtual || fusedMask[m] || attnSrc[m] }
	inlineBwd := func(m *Node) bool { return m.Kind == Virtual }
	// fwdUses lists what n's forward op touches: n's buffers (and extra), and
	// what it reads of its operands.
	fwdUses := func(n *Node, extra ...*buffer[T]) []*buffer[T] {
		uses := append([]*buffer[T]{val[n], stat[n]}, extra...)
		for _, in := range n.Inputs {
			uses = reads(uses, in, inlineFwd)
		}
		return uses
	}
	// bwdUses lists what n's VJP touches: n's cotangent, its operands'
	// cotangents and — unless the VJP only hands cotangents on — the values
	// it reads: its operands', and its own for a row norm or a softmax.
	bwdUses := func(n *Node, extra ...*buffer[T]) []*buffer[T] {
		uses := append([]*buffer[T]{grad[n]}, extra...)
		if n.Op == "rownorm" || n.Op == "softmax" {
			uses = append(uses, val[n])
		}
		_, _, coll := collective(n.Op)
		operands := !coll && !slices.Contains([]string{"concat", "mean", "rep", "repT", "mask", "softmax"}, n.Op)
		for _, in := range n.Inputs {
			uses = append(uses, grad[in])
			if operands {
				uses = reads(uses, in, inlineBwd)
			}
		}
		return uses
	}

	log := obs.Current() // the ops record on the log of the rank compiling them
	// kept is the words a training plan's fused attention sweep at n leaves
	// for the backward: the normalized scores, or under GAT's fused backward
	// the softmax's row statistics.
	kept := func(n *Node) int64 {
		switch psi, ok := attnAgg[n]; {
		case !opt.Train || !ok:
			return 0
		case attnBwd[psi]:
			return 2 * int64(pat.Rows)
		}
		return int64(nnz)
	}
	// emit appends an op to list — a forward op, or a backward one (suffix
	// non-empty) — marking the buffers it touches live at its position in
	// the step. Its body is built once every buffer has storage: builds[i]
	// builds the body of the op at position i (nil at the seed). Its cost
	// estimates are the pattern's, and set with the body. A row-local op and
	// its VJP read the pattern's extent through their specs when they run,
	// so their bodies are built once; every other body is built again under
	// each new pattern.
	var builds []func() func()
	var bodies []func()
	emit := func(list *[]planOp, n *Node, suffix, op string, uses []*buffer[T], build func() func()) {
		touch(len(builds), uses...)
		builds = append(builds, build)
		span := opt.SpanPrefix + n.ID + suffix
		*list = append(*list, planOp{span: span, op: op, node: n, back: suffix != "",
			site: obs.NewOp(log, span, op, 0, 0, 0)})
	}
	// sparseVals resolves the value buffer an spmm reads: the adjacency's
	// own values for the leaf, the node's buffer otherwise.
	sparseVals := func(n *Node) []T {
		if n == g.adj {
			return adjVals()
		}
		return sp(n).vals
	}
	// operands resolves the typed state of all of a node's inputs.
	operands := func(n *Node) []*spec[T] {
		xs := make([]*spec[T], len(n.Inputs))
		for i, in := range n.Inputs {
			xs[i] = sp(in)
		}
		return xs
	}

	// Forward op list, in topological order. Virtual nodes and fused masks
	// emit nothing — they live inside their sampler's sweep.
	for _, n := range nodes {
		s := sp(n)
		ax, _, coll := collective(n.Op)
		if !here(n) && !coll || leaf[n] {
			continue // a diagonal rank's op (collectives run on every rank), or a bound value
		}
		var build func() func()
		op, uses := n.Op, fwdUses(n)
		switch n.Op {
		case "input":
			continue
		case bcastOps[ax]:
			build = func() func() { return opBcastForward(w, ax, sp(n.Inputs[0]), s) }
			if g.gathered(n) {
				build = func() func() { return opGather(w, sp(n.Inputs[0]), s) }
			}
		case reduceOps[ax]:
			build = func() func() { return opReduce(w, ax, sp(n.Inputs[0]), false) }
		case "mask":
			if fusedMask[n] || attnSrc[n] {
				continue
			}
			build = func() func() {
				return opSample(pat, cuts, s.vals, composeScore(sp, row, n.Inputs[1]), maskWeights(s), false)
			}
		case "softmax":
			if attnSrc[n] {
				continue
			}
			in := n.Inputs[0]
			switch {
			case rw != nil:
				var stats []T
				uses = fwdUses(n, rowStat(n, &stats))
				if fusedMask[in] {
					op = "fused-softmax"
				}
				build = func() func() {
					src := sp(in).vals
					sample := func(i int, row []T) { copy(row, src[pat.RowPtr[i]:pat.RowPtr[i+1]]) }
					if fusedMask[in] {
						sample = rowSampler(pat, composeScore(sp, row, in.Inputs[1]).row, maskWeights(sp(in)), false, nil)
					}
					return opSoftmaxGrid(rw, pat, cuts, sample, s.vals, stats)
				}
			case fusedMask[in]:
				op = "fused-softmax"
				build = func() func() {
					return opSample(pat, cuts, s.vals, composeScore(sp, row, in.Inputs[1]), maskWeights(sp(in)), true)
				}
			default:
				build = func() func() { return opRowSoftmax(pat, cuts, sp(in).vals, s.vals) }
			}
		case "spmm":
			if src, ok := attnAgg[n]; ok {
				maskN := src
				softmax := false
				if src.Op == "softmax" {
					maskN = src.Inputs[0]
					softmax = true
				}
				op = "fused-attn"
				build = func() func() {
					return opAttnFused(pat, cuts, sp(src).vals, sp(src).stats, composeScore(sp, row, maskN.Inputs[1]),
						maskWeights(sp(maskN)), softmax, sp(n.Inputs[1]), s)
				}
				break
			}
			build = func() func() { return opSpMM(pat, cuts, sparseVals(n.Inputs[0]), sp(n.Inputs[1]), s) }
		case "spmm-max", "spmm-min", "spmm-mean":
			build = func() func() { return opSemiring(pat, cuts, sparseVals(n.Inputs[0]), sp(n.Inputs[1]), s, s.agg) }
		case "concat":
			build = func() func() { return opConcat(operands(n), s) }
		case "mean":
			build = func() func() { return opMean(operands(n), s) }
		case "mm":
			build = func() func() { return opMM(sp(n.Inputs[0]), sp(n.Inputs[1]), s) }
		case "matvec":
			build = func() func() { return opMatVec(sp(n.Inputs[0]), sp(n.Inputs[1]), s) }
		case "rownorm":
			build = func() func() { return opRowNorms(sp(n.Inputs[0]), s) }
		case "sigma":
			build = func() func() { return opSigma(sp(n.Inputs[0]), s) }
		case "gin-combine":
			build = func() func() {
				return opGINCombine(sp(n.Inputs[0]), row(n.Inputs[1]), sp(n.Inputs[2]), s)
			}
		default:
			if n.Kind == Virtual {
				continue
			}
			return nil, fmt.Errorf("fuse: graph %q: no executable lowering for op %q (node %q)", g.Name, n.Op, n.ID)
		}
		emit(&p.fwd, n, "", op, uses, build)
	}

	// The output is widened, where a float64 one crosses, at a position of its
	// own after the forward ops.
	widenOut := len(builds)
	builds = append(builds, nil)
	touch(widenOut, val[g.output])
	touch(widenOut, outF)
	p.nf = len(builds)
	// A row view is read wherever its table is.
	for v, j := range rowOf {
		touch(ports[j].last, ports[len(c.leaves)+v])
	}

	// Backward op list: reverse traversal of the same node order, after the
	// seed. Dense and vector cotangents accumulate (+=) into cleared buffers;
	// sparse and virtual cotangents are overwritten by their single consumer.
	seed, end := len(builds), widenOut // the position of the seed, which loads the output cotangent
	if opt.Train {
		builds = append(builds, nil)
		touch(seed, grad[g.output], og)
		for idx := len(nodes) - 1; idx >= 0; idx-- {
			n := nodes[idx]
			s := sp(n)
			ax, _, coll := collective(n.Op)
			if !here(n) && !coll || attnBwd[n] {
				continue // a diagonal rank's op, or one the fused attention VJP runs
			}
			var vjp func() func()
			op, uses := n.Op, bwdUses(n)
			switch n.Op {
			case "input":
				continue
			case bcastOps[ax]: // mirror pairs: the Aᵀ of Section 5.2
				vjp = func() func() { return opReduce(w, ax, s, true) }
				if g.gathered(n) {
					vjp = func() func() { return opGatherVJP(w, sp(n.Inputs[0]), s) }
				}
			case reduceOps[ax]:
				vjp = func() func() { return opBcast(w, ax, sp(n.Inputs[0]), true) }
			case "sigma":
				// σ's VJP is the one writer of its operand's cotangent where
				// the operand is no leaf, σ its only consumer and the
				// cotangent its own — or, on the diagonal, a reduce's, which
				// is its partial's, consumed by the reduce alone — not a
				// broadcast source's. It then writes the cotangent uncleared.
				z := n.Inputs[0]
				_, bcast, coll := collective(z.Op)
				set := grad[z] != nil && !leaf[z] && z.Op != "input" && len(cons[z]) == 1 && !(coll && bcast)
				if set {
					grad[z].zero = false
					if n == g.output && e.seedByRef {
						p.zbar = &grad[z].span
					}
				}
				vjp = func() func() { return opSigmaVJP(sp(z), s, set) }
			case "mm":
				vjp = func() func() { return opMMVJP(sp(n.Inputs[0]), sp(n.Inputs[1]), s, &partialsScratch[T]{}) }
			case "matvec":
				vjp = func() func() { return opMatVecVJP(sp(n.Inputs[0]), sp(n.Inputs[1]), s) }
			case "rownorm":
				vjp = func() func() { return opRowNormsVJP(sp(n.Inputs[0]), s) }
			case "gin-combine":
				vjp = func() func() {
					return opGINCombineVJP(sp(n.Inputs[0]), sp(n.Inputs[1]), sp(n.Inputs[2]), s, &redScratch[T]{})
				}
			case "concat":
				vjp = func() func() { return opConcatVJP(operands(n), s) }
			case "mean":
				vjp = func() func() { return opMeanVJP(operands(n), s) }
			case "spmm":
				if psi := attnAgg[n]; attnBwd[psi] {
					// ρ lives inside the op: written by its row sweep, read
					// by its transposed one.
					mask := psi.Inputs[0]
					score := mask.Inputs[1]
					add := score.Inputs[0]
					u, v, x := add.Inputs[0].Inputs[0], add.Inputs[1].Inputs[0], n.Inputs[1]
					var rho []T
					rb := lay.add(n.ID+".rho", rowWords)
					rb.view(&rho)
					op = "fused-attn"
					uses = reads([]*buffer[T]{grad[n], stat[psi], grad[x], grad[u], grad[v], rb, val[x]}, score, inlineBwd)
					vjp = func() func() {
						return opAttnFusedVJP(pat, cuts, cutsT, tr, sp(psi).stats, rho,
							composeScore(sp, row, score), maskWeights(sp(mask)), T(sp(score).slope),
							sp(x), s, sp(u), sp(v))
					}
					break
				}
				// The adjacency leaf has neither values nor a cotangent of
				// its own: only the feature half runs, over adjT.
				vjp = func() func() {
					sam := sp(n.Inputs[0])
					return opSpMMVJP(pat, cuts, cutsT, sam.vals, sam.gvals, tr, adjT, sp(n.Inputs[1]), s)
				}
			case "softmax":
				var stats []T
				if rw != nil {
					uses = bwdUses(n, rowStat(n, &stats))
				}
				vjp = func() func() { return opSoftmaxVJP(pat, cuts, s.vals, s.gvals, rw, stats) }
			case "mask":
				// In place; a pattern-only mask — a weighted one over a pattern
				// included — passes its cotangent through.
				p.unitSensitive = p.unitSensitive || s.weighted
				if s.weighted && !p.unit {
					vjp = func() func() { return opMaskVJP(s.gvals, maskWeights(s)) }
				}
			case "mmt":
				vjp = func() func() { return opDotVJP(pat, cuts, cutsT, s.gvals, tr, sp(n.Inputs[0]), sp(n.Inputs[1])) }
			case "sqdist":
				vjp = func() func() { return opSqDistVJP(pat, cuts, cutsT, s.gvals, tr, sp(n.Inputs[0]), sp(n.Inputs[1])) }
			case "outer":
				vjp = func() func() { return opOuterVJP(pat, cuts, cutsT, s.gvals, tr, sp(n.Inputs[0]), sp(n.Inputs[1])) }
			case "divide":
				vjp = func() func() { return opDivVJP(pat, cuts, s.gvals, sp(n.Inputs[0]), sp(n.Inputs[1])) }
			case "scale":
				vjp = func() func() {
					return opScaleVJP(pat, cuts, s.gvals, sp(n.Inputs[0]), sp(n.Inputs[1]), &redScratch[T]{})
				}
			case "rep":
				vjp = func() func() { return opRepVJP(pat, cuts, s.gvals, sp(n.Inputs[0])) }
			case "repT":
				vjp = func() func() { return opRepTVJP(cutsT, s.gvals, tr, sp(n.Inputs[0])) }
			case "add":
				// Both operands' cotangents are this node's: no work.
			case "lrelu":
				vjp = func() func() { return opLReLUVJP(pat, cuts, s.gvals, sp(n.Inputs[0]), T(s.slope)) }
			default:
				return nil, fmt.Errorf("fuse: graph %q: no VJP for op %q (node %q)", g.Name, n.Op, n.ID)
			}
			if vjp != nil {
				emit(&p.bwd, n, ".bwd", op, uses, vjp)
			}
		}
		// The input cotangent is widened at a position of its own after them.
		end = len(builds)
		builds = append(builds, nil)
		touch(end, grad[e.leaves[0].node])
		touch(end, ginF)
		p.nb = len(builds) - p.nf
	}

	// Every interval is known. What follows them is the pattern's: rebind
	// reshapes the nodes and derives what the ops read of the pattern; the
	// step then sizes the buffers, places them in its slab with those of the
	// other plans it runs and gives the slab storage, and build places the
	// clears and builds the op bodies over that storage.
	p.close(seed, end)
	bodies = make([]func(), len(builds))
	finish := func(op *planOp, at int, clears map[int]*zeroSweep[T]) {
		if bodies[at] == nil || !rowLocal[op.node.Op] {
			bodies[at] = builds[at]()
		}
		op.run = bodies[at]
		prologue(p, op, at, clears[at])
	}
	// cost sets an op's estimates under the bound pattern.
	cost := func(op *planOp) (flops, bytes int64) {
		flops, swept := opCost(g, op.node, op.op, nnz, op.back)
		op.site.Flops, op.site.NNZ = flops, swept
		op.site.Bytes = opBytes(g, op.node, op.op, nnz, op.back, kept(op.node), opt.DType.Size())
		return op.site.Flops, op.site.Bytes
	}
	p.rebind = func(a *sparse.CSR) {
		if a != g.pat {
			g.reshape(a)
			for _, m := range rowViews {
				m.rows = a.Rows
			}
		}
		pat, nnz = a, a.NNZ()
		cuts.Reset(pat.Rows)
		if opt.Train {
			tr = newTransposedRows[T](pat.TransposedPattern())
			cutsT.Reset(tr.patT.Rows)
		}
		p.stats.ForwardFlops, p.stats.ForwardBytes, p.stats.BackwardFlops, p.stats.BackwardBytes = 0, 0, 0, 0
		for i := range p.fwd {
			flops, bytes := cost(&p.fwd[i])
			p.stats.ForwardFlops += flops
			p.stats.ForwardBytes += bytes
		}
		for i := range p.bwd {
			flops, bytes := cost(&p.bwd[i])
			p.stats.BackwardFlops += flops
			p.stats.BackwardBytes += bytes
		}
	}
	p.build = func() {
		adjOK = false
		if grid != nil && !aliased {
			w.words = e.wire.get(ws, max(pat.Rows, pat.Cols)*widest)
		}
		adjT = nil
		if adjSpMM && pat.Val != nil {
			adjT = e.adjT.get(ws, nnz)
			for q, v := 0, adjVals(); q < nnz; q++ {
				adjT[q] = v[tr.src[q]]
			}
		} else {
			e.adjT.release(ws)
		}
		e.zero = zeroSweep[T]{}
		for _, buf := range paramGrads {
			e.zero.add(buf)
		}
		clears := lay.clears(p.step, &e.zero)
		for i := range p.fwd {
			finish(&p.fwd[i], i, clears)
		}
		for i := range p.bwd {
			finish(&p.bwd[i], seed+1+i, clears)
		}
		if !adjOK {
			e.adj.release(ws)
		}
		p.stats.WorkspaceWords = (p.stepBytes + e.persist()) / opt.DType.Size()
	}
	p.stats.ForwardOps, p.stats.BackwardOps = len(p.fwd), len(p.bwd)
	p.stats.SoftmaxFused, p.stats.AttnFused = len(fusedMask), len(attnAgg)
	p.stats.OpCounts = make(map[string]int)
	for _, grp := range groups {
		if !need[grp.Sampler] {
			continue
		}
		p.stats.FusedVirtual += len(grp.Virtual)
		p.stats.Groups = append(p.stats.Groups, grp.String())
	}
	for _, op := range p.fwd {
		p.stats.OpCounts[op.op]++
	}
	p.rebind(g.pat)
	alone(p)
	p.stats.WorkspaceWords = e.persist() / opt.DType.Size()
	return p, nil
}

// MustCompile is Compile panicking on error — for the layer constructors,
// whose graphs are built by the library itself.
func (g *Graph) MustCompile(opt Options) *Plan {
	p, err := g.Compile(opt)
	if err != nil {
		panic(err)
	}
	return p
}

// attnFusion finds the spmm nodes the attention-fusion rule applies to:
// those whose sparse operand is a single-consumer softmax over a
// peephole-fused mask, or a single-consumer mask directly. It returns the
// spmm→folded-sparse-node map and the set of folded sparse nodes (which
// emit no standalone forward op).
func attnFusion(g *Graph, nodes []*Node, cons map[*Node][]*Node, fusedMask map[*Node]bool, disabled bool) (map[*Node]*Node, map[*Node]bool) {
	agg := make(map[*Node]*Node)
	src := make(map[*Node]bool)
	if disabled {
		return agg, src
	}
	for _, n := range nodes {
		if n.Op != "spmm" {
			continue
		}
		in := n.Inputs[0]
		if in == g.adj || len(cons[in]) != 1 {
			continue
		}
		switch in.Op {
		case "softmax":
			// Not where a grid row spans ranks: the softmax there exchanges
			// row statistics between its sweeps, so it cannot sit inside a
			// one-pass row.
			if m := in.Inputs[0]; m.Op == "mask" && fusedMask[m] && !g.lowered(AlongRow) {
				agg[n], src[in] = in, true
			}
		case "mask":
			agg[n], src[in] = in, true
		}
	}
	return agg, src
}

// attnBackward finds the fused aggregations whose VJP chain compiles to the
// two sweeps of opAttnFusedVJP: spmm ← softmax ← mask ← lrelu ← u·1ᵀ + 1·vᵀ,
// GAT's (a grid plan has none: attnFusion refuses its softmax). u and v must
// be two vectors nothing else reads: their cotangents then receive the
// chain's row and column sums and nothing else, so the sums may run at the
// aggregation's place in the backward list rather than at their own. It
// returns the chains' sparse and virtual nodes, softmax to repT, whose VJPs
// and cotangent buffers the fused op takes over. Any other chain — AGNN's,
// VA's — keeps the per-op VJPs.
func attnBackward(agg map[*Node]*Node, cons map[*Node][]*Node) map[*Node]bool {
	chain := make(map[*Node]bool)
	for _, psi := range agg {
		if psi.Op != "softmax" || !gatScore(psi.Inputs[0].Inputs[1]) {
			continue
		}
		mask := psi.Inputs[0]
		score := mask.Inputs[1]
		add := score.Inputs[0]
		rep, repT := add.Inputs[0], add.Inputs[1]
		if u, v := rep.Inputs[0], repT.Inputs[0]; u == v || len(cons[u]) != 1 || len(cons[v]) != 1 {
			continue
		}
		for _, n := range []*Node{psi, mask, score, add, rep, repT} {
			chain[n] = true
		}
	}
	return chain
}

// gatScore reports whether n roots GAT's score chain lrelu(u·1ᵀ + 1·vᵀ).
func gatScore(n *Node) bool {
	return n.Op == "lrelu" && n.Inputs[0].Op == "add" &&
		n.Inputs[0].Inputs[0].Op == "rep" && n.Inputs[0].Inputs[1].Op == "repT"
}

// cotangentOperands lists the operands of a sparse or virtual node whose
// cotangent is an element-wise function of the node's own — so the two can
// share one buffer, the VJP running in place: the scores under a mask or a
// softmax, the argument of lrelu and scale, both terms of a sum, and the
// numerator of a quotient (its denominator's cotangent needs the numerator's
// value as well, and is written to a buffer of its own in the same pass).
func cotangentOperands(n *Node) []*Node {
	switch n.Op {
	case "softmax", "lrelu", "scale", "divide":
		return n.Inputs[:1]
	case "mask":
		return n.Inputs[1:]
	case "add":
		return n.Inputs
	}
	return nil
}

// composeScore lowers the virtual chain rooted at n to the row evaluator a
// sampling sweep calls once per pattern row — the runtime realization of
// "evaluate the virtual values on the fly inside the sampler's sweep". The
// three standard attention chains get flat row loops with every per-vertex
// term hoisted: GAT's lrelu(u·1ᵀ + 1·vᵀ) is u[i] + v[cols[q]] and a sign
// test, VA's X·Yᵀ is sparse.GatherDots, AGNN's β·(X·Yᵀ ⊘ a·bᵀ) is
// GatherDots followed by sparse.CosineRow. Any other chain loops its
// entry-wise composition. Each entry is computed by the same operations in
// the same order either way. Parameter operands are read through their spec
// at call time, so the "scale" β is the same value the kernels see. The
// operands of the i side are read through row, those of the j side through
// sp (Compile's row).
func composeScore[T elem](sp, row func(*Node) *spec[T], n *Node) score[T] {
	// dots returns the row evaluator of the virtual X·Yᵀ node m.
	dots := func(m *Node) score[T] {
		xs, ys := row(m.Inputs[0]), sp(m.Inputs[1])
		return score[T]{gathers: ys, row: func(i int32, cols sparse.Index, dst []T) {
			xd := xs.dense
			k := xd.Cols
			sparse.GatherDots(dst, xd.Data[int(i)*k:int(i)*k+k], cols, ys.dense.Data, k, 0)
		}}
	}
	switch {
	case n.Op == "mmt":
		return dots(n)
	case gatScore(n):
		a := n.Inputs[0]
		us, vs := row(a.Inputs[0].Inputs[0]), sp(a.Inputs[1].Inputs[0])
		slope := T(sp(n).slope)
		return score[T]{row: func(i int32, cols sparse.Index, dst []T) {
			u, v := us.vec[i], vs.vec
			dst = dst[:cols.Len()]
			for q, j := range cols.Cols() {
				dst[q] = lrelu(u+v[j], slope)
			}
		}}
	case n.Op == "scale" && n.Inputs[0].Op == "divide" &&
		n.Inputs[0].Inputs[0].Op == "mmt" && n.Inputs[0].Inputs[1].Op == "outer":
		d := n.Inputs[0]
		dot := dots(d.Inputs[0])
		as, bs := row(d.Inputs[1].Inputs[0]), sp(d.Inputs[1].Inputs[1])
		beta := sp(n.Inputs[1])
		return score[T]{gathers: dot.gathers, row: func(i int32, cols sparse.Index, dst []T) {
			dot.row(i, cols, dst)
			sparse.CosineRow(dst, cols, bs.vec, as.vec[i], beta.dense.Data[0])
		}}
	}
	entry := sp(n).entry
	return score[T]{row: func(i int32, cols sparse.Index, dst []T) {
		dst = dst[:cols.Len()]
		for q, j := range cols.Cols() {
			dst[q] = entry(i, j)
		}
	}}
}

// composeEntry builds the closure evaluating one entry of a virtual node by
// composing its inputs' evaluators, reading the i side through row as
// composeScore does.
func composeEntry[T elem](sp, row func(*Node) *spec[T], n *Node) scoreEntry[T] {
	switch n.Op {
	case "mmt":
		xs, ys := row(n.Inputs[0]), sp(n.Inputs[1])
		return func(i, j int32) T {
			xd, yd := xs.dense, ys.dense
			k := xd.Cols
			xrow := xd.Data[int(i)*k : int(i)*k+k]
			yrow := yd.Data[int(j)*k : int(j)*k+k]
			var acc T
			for t, v := range xrow {
				acc += v * yrow[t]
			}
			return acc
		}
	case "sqdist":
		xs, ys := row(n.Inputs[0]), sp(n.Inputs[1])
		return func(i, j int32) T {
			k := xs.cols
			yrow := ys.dense.Data[int(j)*k : int(j)*k+k]
			var acc T
			for t, v := range xs.dense.Data[int(i)*k : int(i)*k+k] {
				d := v - yrow[t]
				acc += d * d
			}
			return acc
		}
	case "outer":
		as, bs := row(n.Inputs[0]), sp(n.Inputs[1])
		return func(i, j int32) T { return as.vec[i] * bs.vec[j] }
	case "divide":
		num, den := sp(n.Inputs[0]), sp(n.Inputs[1])
		return func(i, j int32) T {
			d := den.entry(i, j)
			if d == 0 {
				return 0
			}
			return num.entry(i, j) / d
		}
	case "scale":
		xs, beta := sp(n.Inputs[0]), sp(n.Inputs[1])
		return func(i, j int32) T { return beta.dense.Data[0] * xs.entry(i, j) }
	case "rep":
		us := row(n.Inputs[0])
		return func(i, _ int32) T { return us.vec[i] }
	case "repT":
		vs := sp(n.Inputs[0])
		return func(_, j int32) T { return vs.vec[j] }
	case "add":
		as, bs := sp(n.Inputs[0]), sp(n.Inputs[1])
		return func(i, j int32) T { return as.entry(i, j) + bs.entry(i, j) }
	case "lrelu":
		xs := sp(n.Inputs[0])
		slope := T(sp(n).slope)
		return func(i, j int32) T { return lrelu(xs.entry(i, j), slope) }
	}
	panic(fmt.Sprintf("fuse: no score composition for virtual op %q (node %q)", n.Op, n.ID))
}

// Stats returns the plan's compile-time statistics.
func (p *Plan) Stats() PlanStats { return p.stats }

// Train reports whether the plan carries a backward pass.
func (p *Plan) Train() bool { return p.train }

// OutputDims returns the shape of the forward result.
func (p *Plan) OutputDims() (rows, cols int) { return p.output.rows, p.output.cols }

// Forward binds h as the input feature matrix and executes the op list.
// The returned matrix is owned by the plan's step and valid until a later
// position of the step reuses its storage: for a plan alone, until its next
// Forward. A casting plan in a step that hands typed matrices on makes the
// step plan its float64 crossings from then on.
func (p *Plan) Forward(h *tensor.Dense) *tensor.Dense {
	p.step.widen(p, false)
	p.ForwardTyped(tensor.Typed{F64: h})
	return p.Output()
}

// ForwardTyped is Forward on a matrix at either width, returning the result
// at the plan's: a float32 plan binds a float32 input as a float64 plan binds
// a float64 one, and hands its output buffer on as it is. Any plan takes a
// float64 input; a float32 one into a float64 plan is the caller's to widen.
func (p *Plan) ForwardTyped(h tensor.Typed) tensor.Typed {
	if len(p.leaves) != 1 {
		panic(fmt.Sprintf("fuse: plan %q starts from %d nodes: use ForwardFrom", p.Name, len(p.leaves)))
	}
	p.ready()
	p.bindLeaf(0, h)
	return p.forward()
}

// ForwardFrom is ForwardTyped for a plan compiled FromTables: leaves[i] is
// the table of the i-th node, a vector node's as one column, with a row per
// vertex — the plan reads it and does not compute it — and after them come
// the rows of those some op reads along the pattern's rows, one per pattern
// row (Graph.FromTables).
func (p *Plan) ForwardFrom(leaves []tensor.Typed) tensor.Typed {
	if len(leaves) != len(p.leaves) {
		panic(fmt.Sprintf("fuse: plan %q starts from %d nodes, got %d values", p.Name, len(p.leaves), len(leaves)))
	}
	p.ready()
	for i, h := range leaves {
		p.bindLeaf(i, h)
	}
	return p.forward()
}

// ready lays the plan's step out if it has to be, before a part of the plan
// runs.
func (p *Plan) ready() {
	if p.released {
		panic("fuse: plan " + p.Name + " run after Release")
	}
	p.step.ready()
}

func (p *Plan) bindLeaf(i int, h tensor.Typed) {
	p.checkShape(p.leaves[i].node.ID, h, p.leaves[i])
	p.x.bind(i, h)
}

func (p *Plan) forward() tensor.Typed {
	p.x.refresh()
	runOps(p.fwd)
	p.ranForward = true
	return p.x.native(false)
}

// Output returns the result of the latest forward sweep as float64: the
// plan's own buffer at that width, a widened copy at float32 — in a buffer
// of the step, which a plan alone always has and a step that hands the
// result on typed does not. Where nothing reads the float32 result after the
// widen, the step places the copy over it: the typed matrix ForwardTyped
// returned is then gone once Output has run.
func (p *Plan) Output() *tensor.Dense { return p.x.dense(false) }

// checkShape panics unless v is what the plan can bind at node m (a vector
// node's value is one column).
func (p *Plan) checkShape(what string, v tensor.Typed, m *meta) {
	if p.offDiag {
		return
	}
	want := m.cols
	if m.node.Kind == Vector {
		want = 1
	}
	if rows, cols, _ := v.Dims(); rows != m.rows || cols != want {
		panic(fmt.Sprintf("fuse: plan %q %s shape %d×%d, got %d×%d", p.Name, what, m.rows, want, rows, cols))
	}
	if v.F32 != nil && p.stats.DType != tensor.F32 {
		panic(fmt.Sprintf("fuse: plan %q runs at %s and was handed a float32 %s", p.Name, p.stats.DType, what))
	}
}

// runOps executes an op list, crediting each op's wall time to its
// instrument (obs.Op.Done: the latency histogram, the roofline totals and
// the op's one record). Only atomic operations touch the instrument — no
// allocations, nothing looked up.
func runOps(list []planOp) {
	for i := range list {
		op := &list[i]
		t0 := obs.Now()
		op.run()
		op.site.Done(t0)
	}
}

// opCost estimates, from compile-time shapes, the floating-point operations
// and sparse non-zeros one execution of an op sweeps — the Section 6 op
// counts, made concrete per compiled op. Backward variants approximately
// double the forward work (two sweeps: operand cotangent + parameter/value
// cotangent); the fused attention VJP, which has no forward twin, is counted
// as it runs.
func opCost(g *Graph, n *Node, op string, nnz int, backward bool) (flops, swept int64) {
	s := g.md(n)
	r, c := int64(s.rows), int64(s.cols)
	nz := int64(nnz)
	if _, bcast, ok := collective(op); ok {
		// The local half only — the wire is dist's to count: a reduce adds
		// the payload once, a broadcast does no arithmetic.
		if !bcast {
			flops = r * max(c, 1)
		}
		return flops, 0
	}
	switch op {
	case "mm":
		k := int64(g.md(n.Inputs[0]).cols)
		flops = 2 * r * k * c
	case "spmm", "spmm-max", "spmm-min", "spmm-mean":
		flops, swept = 2*nz*c, nz
	case "mask":
		flops, swept = 2*nz, nz
	case "softmax":
		flops, swept = 5*nz, nz
	case "fused-softmax":
		flops, swept = 9*nz, nz
	case "fused-attn":
		if backward {
			// opAttnFusedVJP, counted as it runs over its two sweeps: per
			// non-zero the Ψ̄ dot product in each sweep and the Sᵀ·Z̄ axpy
			// (2c each), ρ (2), the softmax apply and LeakyReLU′ in each
			// sweep (4 each), the row and column sums (2), and Ψ recomputed
			// in each sweep — score, shift, exp and scale (4 each).
			return 6*nz*c + 20*nz, 2 * nz
		}
		// Score sampling (+softmax for the GAT/AGNN shape) plus the
		// aggregation, all in one sweep.
		if n.Inputs[0].Op == "softmax" {
			flops = 9*nz + 2*nz*c
		} else {
			flops = 2*nz + 2*nz*c
		}
		swept = nz
	case "matvec", "rownorm":
		k := int64(g.md(n.Inputs[0]).cols)
		flops = 2 * r * k
	case "sigma":
		flops = r * c
	case "gin-combine":
		flops = 3 * r * c
	case "concat": // copies only
	case "mean":
		flops = r * c * int64(len(n.Inputs))
	default:
		// Virtual-node VJPs (mmt, sqdist, outer, divide, scale, rep, repT,
		// add, lrelu): one pattern sweep re-evaluating scores entry-wise.
		flops, swept = 4*nz, nz
	}
	if backward {
		flops *= 2
	}
	return flops, swept
}

// Backward executes the reverse-derived VJP op list for the cotangent g of
// the plan's output, accumulates parameter gradients into their Grad
// buffers, and returns the cotangent of the input. That is the step's
// storage, shared with buffers the forward sweep writes: it is valid until a
// later position of the step reuses it — for a plan alone, until its next
// Forward. Clone it to hold it across one. Each forward value dies at the
// last backward op that reads it, so a Backward reads the values of the
// Forward just before it: a second Backward without a Forward in between
// reads dead words, and what it returns and accumulates is undefined
// (Model.Backward panics there).
func (p *Plan) Backward(g *tensor.Dense) *tensor.Dense {
	p.step.widen(p, true)
	p.BackwardTyped(tensor.Typed{F64: g})
	return p.InputGrad()
}

// BackwardTyped is Backward on a cotangent at either width, returning the
// input cotangent at the plan's (see ForwardTyped).
func (p *Plan) BackwardTyped(g tensor.Typed) tensor.Typed {
	if !p.train {
		panic(fmt.Sprintf("fuse: plan %q is inference-only", p.Name))
	}
	p.ready()
	if !p.ranForward {
		panic(fmt.Sprintf("fuse: plan %q: Backward before Forward", p.Name))
	}
	p.checkShape("output cotangent", g, p.output)
	p.x.seed(g)
	runOps(p.bwd)
	p.x.settle()
	return p.x.native(true)
}

// InputGrad returns the input cotangent of the latest backward sweep as
// float64 (see Output: the typed one BackwardTyped returned may be gone once
// it has run), valid as Backward's result is.
func (p *Plan) InputGrad() *tensor.Dense { return p.x.dense(true) }

// Bind points the plan at adjacency a. It keeps everything compile derived
// from the DAG — the op order, the fusion decisions, the composed scores, the
// buffers' intervals — and redoes what the pattern decides: the nodes'
// shapes (the input is as tall as a has columns, the output as a has rows),
// the nnz-balanced cuts, a training plan's transposed pattern, the ops' cost
// estimates and — when its step is next laid out, before the next position
// runs — A's values in Aᵀ's order, the buffers' sizes and offsets, and the op
// bodies. The step keeps the storage it holds and acquires more only where
// its slab, or a buffer outside it, has become too small. A plan bound to a
// computes what a plan compiled over a computes, bit for bit.
// Binding the pattern the plan already has does nothing; after any other,
// Backward needs a Forward first.
//
// Bind reports false and leaves the plan as it was when a does not fit what
// was compiled: a grid plan binds only the block it was compiled for, and a
// training plan over a weighted mask holds the mask's VJP exactly when A
// holds values, so it binds a pattern only if it was compiled over one. The
// caller compiles a new plan then.
func (p *Plan) Bind(a *sparse.CSR) bool {
	if p.released {
		panic("fuse: Bind on a released plan")
	}
	if a == p.g.pat {
		return true
	}
	if p.g.grid != nil || p.unitSensitive && (a.Val == nil) != p.unit {
		return false
	}
	p.rebind(a)
	p.step.stale = true
	metrics.PlanCacheHits.Inc()
	return true
}

// Release returns every buffer the plan holds to the workspace arena, where
// the next compile finds it, and takes the plan out of its step; a step left
// with no plan returns its slab. The plan is unusable afterwards.
func (p *Plan) Release() {
	if p.released {
		return
	}
	p.released = true
	p.x.release(p.ws)
	p.step.drop(p)
	if p.live {
		livePlans.Add(-1)
	}
}

// String renders a compact plan summary.
func (p *Plan) String() string {
	mode := "infer"
	if p.train {
		mode = "train"
	}
	ops := make([]string, 0, len(p.stats.OpCounts))
	for op := range p.stats.OpCounts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	s := fmt.Sprintf("plan %q (%s): %d fwd ops, %d bwd ops, %d KiB workspace\n",
		p.Name, mode, p.stats.ForwardOps, p.stats.BackwardOps, p.stats.WorkspaceBytes()/1024)
	for _, op := range ops {
		s += fmt.Sprintf("  %-14s ×%d\n", op, p.stats.OpCounts[op])
	}
	return s
}
