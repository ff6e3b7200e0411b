package fuse

import (
	"fmt"
	"slices"
	"sort"

	"agnn/internal/obs"
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
	// Workspace is the buffer arena the plan acquires its intermediates
	// from. Sharing one arena across recompilations (adjacency rebinds)
	// recycles the old plan's buffers. Nil allocates a private arena.
	Workspace *tensor.Arena
	// DType selects the element width of the compiled kernels. F64 (the
	// zero value) is the default double-precision path, bitwise-identical
	// to the pre-dtype runtime. F32 compiles the plan against float32
	// buffers and kernels: inputs, parameters and cotangents are cast at
	// the plan boundary, parameter gradients are flushed back into the
	// float64 Grad accumulators after each backward pass.
	DType tensor.DType
	// NoAttnFuse disables the fused SDDMM+softmax+SpMM attention rule.
	// The fused op executes score sampling, normalization and aggregation
	// in one sweep per row block and is therefore row-indivisible; callers
	// that partition plans into arrival-gated fragments (the overlapped
	// RowEngine) must keep the unfused op sequence.
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
// list over preallocated buffers. Forward binds the input feature matrix
// and runs the op list; Backward (training plans) runs the reverse-derived
// VJP list and returns the input cotangent. All returned tensors are owned
// by the plan and are overwritten by the next step.
//
// A plan takes and returns matrices at its own width (ForwardTyped,
// BackwardTyped — what the consecutive plans of a model hand each other) or
// as float64, the public matrix type (Forward, Backward, Output, InputGrad).
// The typed buffers live behind the plan's boundary (exec), which is the one
// place that knows whether the plan aliases the caller's storage or casts
// across it.
type Plan struct {
	Name   string
	train  bool
	rowOff int

	pat           *sparse.CSR // the sparsity pattern every sparse op runs over
	input, output *meta
	fwd, bwd      []planOp
	// offDiag: the plan runs on an off-diagonal rank of a process grid, which
	// holds no dense block — Forward and Backward take and return nil there.
	offDiag bool

	x boundary

	ws    *tensor.Arena
	stats PlanStats

	ranForward bool
	released   bool
}

// boundary is the face of a plan's typed execution state.
type boundary interface {
	bind(h tensor.Typed)           // make h the input of the coming forward sweep
	seed(g tensor.Typed)           // reset cotangents, load the output cotangent
	settle()                       // flush parameter gradients into their float64 masters
	native(back bool) tensor.Typed // the forward result — back: the input cotangent — at the plan's width
	dense(back bool) *tensor.Dense // the same as float64
	detach()                       // drop the references bind and seed took to the caller's matrices
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
// the widened result, the widened input cotangent — acquired when one first
// crosses there: a layer between two others of its width never holds any.
// On an off-diagonal rank of a process grid (offDiag) the input and output
// nodes do not exist: only the parameters cross the boundary.
type exec[T elem] struct {
	plan          *Plan // whose workspace the conversion buffers come from, and count in
	input, output *spec[T]
	offDiag       bool
	// seedByRef: the output cotangent is read from the caller's matrix, as
	// the input is — float64 plans whose output feeds nothing inside the DAG.
	seedByRef bool

	// Casting plans only; empty when T is float64.
	inN        *tensor.Mat[T] // narrowed input
	outF, ginF *tensor.Dense  // widened forward result / input cotangent
	shadows    []shadow[T]    // parameter masters → rounded working copies
	flushes    []shadow[T]    // gradient shadows → master Grad accumulators
	narrow     castSweep[T, float64]
	widen      castSweep[float64, T]
	same       castSweep[T, T] // an output cotangent arriving at width T

	zeroMats []*tensor.Mat[T] // cotangent buffers zeroed before each backward
	zeroVecs [][]T

	mats   []*tensor.Mat[T] // everything acquired from the workspace,
	slices [][]T            // for release
	wire   []float64        // staging words of a casting grid plan's collectives
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

// words adds n elements of the given width to the workspace the plan reports.
func (e *exec[T]) words(n int, width int64) {
	e.plan.stats.WorkspaceWords += int64(n) * width / e.plan.stats.DType.Size()
}

func (e *exec[T]) bind(h tensor.Typed) {
	if !e.offDiag {
		m, ok := asNative[T](h)
		if !ok {
			if e.inN == nil {
				e.inN = tensor.AcquireMat[T](e.plan.ws, h.F64.Rows, h.F64.Cols)
				e.mats = append(e.mats, e.inN)
				e.words(len(e.inN.Data), e.plan.stats.DType.Size())
			}
			m = e.inN
			e.narrow.run(m.Data, h.F64.Data)
		}
		e.input.dense = m
	}
	for _, s := range e.shadows {
		e.narrow.run(s.local.Data, s.master.Data)
	}
}

func (e *exec[T]) seed(g tensor.Typed) {
	for _, m := range e.zeroMats {
		clear(m.Data)
	}
	for _, v := range e.zeroVecs {
		clear(v)
	}
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
		return typed(e.input.gdense)
	}
	return typed(e.output.dense)
}

func (e *exec[T]) dense(back bool) *tensor.Dense {
	if e.offDiag {
		return nil
	}
	src, buf := e.output.dense, &e.outF
	if back {
		src, buf = e.input.gdense, &e.ginF
	}
	if d, ok := any(src).(*tensor.Mat[float64]); ok {
		return (*tensor.Dense)(d)
	}
	if *buf == nil {
		*buf = e.plan.ws.AcquireDense(src.Rows, src.Cols)
		e.words(len(src.Data), 8)
	}
	e.widen.run((*buf).Data, src.Data)
	return *buf
}

// detach keeps an idle plan from holding its last caller's matrices alive:
// the bound input unless it is the plan-owned narrowed copy, and an output
// cotangent read by reference.
func (e *exec[T]) detach() {
	if e.offDiag {
		return
	}
	if e.input.dense != e.inN {
		e.input.dense = nil
	}
	if e.seedByRef {
		e.output.gdense = nil
	}
}

func (e *exec[T]) release(ws *tensor.Arena) {
	for _, m := range e.mats {
		tensor.ReleaseMat(ws, m)
	}
	for _, s := range e.slices {
		tensor.ReleaseSlice(ws, s)
	}
	tensor.ReleaseSlice(ws, e.wire)
	ws.ReleaseDense(e.outF)
	ws.ReleaseDense(e.ginF)
	e.mats, e.slices, e.wire, e.inN, e.outF, e.ginF = nil, nil, nil, nil, nil, nil
}

// Compile lowers the graph into an executable plan: it runs the Section 6.2
// fusion analysis, fuses mask→softmax pairs into single sampling sweeps (a
// peephole beyond the paper's rule, matching the hand-written
// FusedSoftmaxScores kernel), allocates every intermediate once from the
// workspace arena, composes the virtual score evaluators, and emits the
// forward op list plus — for training plans — the reverse-traversal
// backward op list. The whole lowering exists once, generic over the
// element type, and is instantiated here per Options.DType.
func (g *Graph) Compile(opt Options) (*Plan, error) {
	if g.output == nil {
		return nil, fmt.Errorf("fuse: graph %q has no output", g.Name)
	}
	if g.input == nil {
		return nil, fmt.Errorf("fuse: graph %q has no dense input", g.Name)
	}
	casting := opt.DType != tensor.F64
	if opt.Train && g.rowOff != 0 {
		return nil, fmt.Errorf("fuse: graph %q: row-offset plans are inference-only", g.Name)
	}
	if g.grid != nil && (g.pat.Rows != g.pat.Cols || g.rowOff != 0) {
		return nil, fmt.Errorf("fuse: graph %q: a grid block is square and takes no row offset, got %d×%d at offset %d",
			g.Name, g.pat.Rows, g.pat.Cols, g.rowOff)
	}
	cons := g.dag.consumers()
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
	if casting {
		return compile[float32](g, opt, cons)
	}
	return compile[float64](g, opt, cons)
}

func compile[T elem](g *Graph, opt Options, cons map[*Node][]*Node) (*Plan, error) {
	groups := Analyze(g.dag) // panics if a virtual escapes — a builder bug

	// Peephole: a softmax whose only producer chain is a single-consumer
	// mask compiles to one fused sampling sweep; the mask's value buffer is
	// never materialized (its cotangent still is, for training).
	fusedMask := make(map[*Node]bool)
	for _, n := range g.dag.Nodes() {
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
	// is hot. Training plans still write the normalized scores into the
	// sparse node's value buffer inside the same sweep, so the derived
	// backward pass is unchanged; inference plans never materialize a
	// per-edge score tensor at all. Per-row arithmetic order matches the
	// unfused sample-then-spmm sequence exactly, so fused plans are
	// bitwise-identical to unfused ones.
	attnAgg, attnSrc := attnFusion(g, cons, fusedMask, opt.NoAttnFuse)

	ws := opt.Workspace
	if ws == nil {
		ws = tensor.NewArena()
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
	e := &exec[T]{offDiag: !diag, seedByRef: aliased && len(cons[g.output]) == 0 && !outColl}
	p := &Plan{Name: g.Name, train: opt.Train, rowOff: g.rowOff, pat: g.pat,
		input: g.md(g.input), output: g.md(g.output), x: e, ws: ws, offDiag: !diag}
	e.plan = p

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
	e.input, e.output = sp(g.input), sp(g.output)

	// words counts the held workspace in elements of T (WorkspaceBytes
	// multiplies by DType.Size()); the float64 buffers of a casting plan
	// count at their own width.
	var words int64
	mat := func(r, c int) *tensor.Mat[T] {
		m := tensor.AcquireMat[T](ws, r, c)
		e.mats = append(e.mats, m)
		words += int64(r) * int64(c)
		return m
	}
	floats := func(n int) []T {
		s := tensor.AcquireSlice[T](ws, n)
		e.slices = append(e.slices, s)
		words += int64(n)
		return s
	}
	pat := g.pat
	nnz := pat.NNZ()
	// The nnz-balanced chunk boundaries every sparse sweep uses, computed
	// once per pattern here so steady-state ops pay zero scan cost. (The
	// checked column index the sweeps gather through is the pattern's own,
	// pat.Index(), scanned once as well.)
	cuts := par.NewCuts(pat.Rows, nnzWeight(pat))

	// The adjacency values (weighted masks, adjacency SpMM) at width T,
	// resolved on first use and shared by every op that needs them: A's own
	// at float64, converted once into a workspace buffer otherwise.
	var adj []T
	adjVals := func() []T {
		if v, ok := any(pat.Val).([]T); ok {
			return v
		}
		if adj == nil {
			adj = floats(nnz)
			tensor.Cast(adj, pat.Val)
		}
		return adj
	}
	// A weighted mask multiplies A's values in, unless every one of them is
	// exactly 1: x·1 is x to the bit, so such a mask compiles as a pattern-only
	// one — no multiply per edge, no VJP, no copy of the values at width T.
	// The values are part of the plan-cache key, so the decision is too.
	maskWeights := func(mask *spec[T]) []T {
		if !mask.weighted || !slices.ContainsFunc(pat.Val, func(v float64) bool { return v != 1 }) {
			return nil
		}
		return adjVals()
	}

	// value and cotangent acquire the storage of a dense or vector node.
	value := func(s *spec[T]) {
		if s.node.Kind == Vector {
			s.vec = floats(s.rows)
		} else {
			s.dense = mat(s.rows, s.cols)
		}
	}
	cotangent := func(s *spec[T]) {
		if s.node.Kind == Vector {
			s.gvec = floats(s.rows)
			e.zeroVecs = append(e.zeroVecs, s.gvec)
		} else {
			s.gdense = mat(s.rows, s.cols)
			e.zeroMats = append(e.zeroMats, s.gdense)
		}
	}

	// Allocate buffers and compose virtual entry evaluators, in topological
	// (insertion) order so every node's inputs are ready.
	for _, n := range g.dag.Nodes() {
		s := sp(n)
		_, bcast, coll := collective(n.Op)
		switch {
		case !here(n):
			// lives on the diagonal rank of this grid row/column
		case n == g.adj:
			// values resolve lazily via adjVals
		case n == g.input:
			// The value is bound per step (exec.bind).
			if opt.Train {
				cotangent(s)
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
				e.zeroMats = append(e.zeroMats, s.grad)
				e.flushes = append(e.flushes, shadow[T]{master: s.param.Grad, local: s.grad})
			}
		case n.Kind == Virtual:
			s.entry = composeEntry(sp, n)
		case n.Kind == Sparse:
			// Attention-fused sparse nodes materialize values only for
			// training (the backward pass reads them); inference keeps the
			// scores in per-row scratch inside the fused sweep.
			if !fusedMask[n] && !(attnSrc[n] && !opt.Train) {
				s.vals = floats(nnz)
			}
		case coll && diag:
			// On the diagonal a collective node is its operand, value and
			// cotangent: a broadcast copy there is the source itself, and
			// the ranks' cotangents reduce into the source's in place; a
			// partial sum's only consumer is the reduce that overwrites it.
			// (A broadcast's value is bound per step — opBcastForward — as
			// the source may be the plan input.)
			src := sp(n.Inputs[0])
			s.gdense, s.gvec = src.gdense, src.gvec
			if !bcast {
				s.dense = src.dense
			}
		default: // dense or vector compute node
			if n.Op == "sigma" && (s.act.Name == "relu" || s.act.isIdentity()) &&
				n.Inputs[0].Op != "input" && len(cons[n.Inputs[0]]) == 1 {
				// Piecewise-linear σ over a pre-activation nobody else reads
				// runs in place: σ′ is as readable off max(z, 0) as off z.
				s.dense = sp(n.Inputs[0]).dense
			} else {
				value(s)
			}
			switch {
			case !opt.Train, n == g.output && e.seedByRef:
			case !diag && n.Op == "spmm":
				// Off the diagonal a partial sum is dead once reduced and
				// its cotangent arrives whole, by broadcast: one buffer
				// holds first the one, then the other.
				s.gdense = s.dense
			default:
				cotangent(s)
			}
		}
	}
	// Cotangents of the sparse and virtual nodes, consumers first. Each has
	// one consumer (checked in Compile), whose VJP writes it once, and its
	// own VJP reads it once; where that VJP is element-wise onto an operand's
	// cotangent the operand shares the buffer and the VJP runs in place
	// (cotangentOperands) — an attention chain threads one nnz-sized buffer
	// from Ψ̄ down to its vector operands.
	if opt.Train {
		nodes := g.dag.Nodes()
		for idx := len(nodes) - 1; idx >= 0; idx-- {
			n := nodes[idx]
			if n == g.adj || (n.Kind != Sparse && n.Kind != Virtual) {
				continue
			}
			s := sp(n)
			if s.gvals == nil {
				s.gvals = floats(nnz)
			}
			for _, in := range cotangentOperands(n) {
				sp(in).gvals = s.gvals
			}
		}
	}
	// The grid plan's collectives, and the row-statistics vector its softmax
	// sweeps exchange through them.
	var w *wire[T]
	var rowStat []T
	if grid != nil {
		w = &wire[T]{grid: grid}
		if !aliased {
			widest := 1
			for _, m := range g.meta {
				widest = max(widest, m.cols)
			}
			e.wire = tensor.AcquireSlice[float64](ws, pat.Rows*widest)
			w.words = e.wire
			words += int64(len(e.wire)) * 8 / opt.DType.Size()
		}
		rowStat = floats(pat.Rows)
	}

	// The backward pass's column sweeps (Sᵀ·X products, column sums) run
	// over the transposed pattern, which is the adjacency object's own —
	// computed once, shared by every training plan over it — and read the
	// sparse node's current values through it. Only an adjacency SpMM wants
	// A's values laid out in Aᵀ's order, once, as adjT.
	var tr *transposedRows[T]
	var cutsT *par.Cuts
	var adjT []T
	if opt.Train {
		tr = newTransposedRows[T](pat.TransposedPattern())
		cutsT = par.NewCuts(tr.patT.Rows, nnzWeight(tr.patT))
		for _, n := range g.dag.Nodes() {
			if n.Op == "spmm" && n.Inputs[0] == g.adj {
				adjT = floats(nnz)
				for q, v := 0, adjVals(); q < nnz; q++ {
					adjT[q] = v[tr.src[q]]
				}
				break
			}
		}
	}

	rowOff := int32(g.rowOff)
	log := obs.Current() // the ops record on the log of the rank compiling them
	emit := func(list *[]planOp, n *Node, suffix, op string, f opFns) {
		backward := suffix != ""
		flops, swept := opCost(g, n, op, nnz, backward)
		span := opt.SpanPrefix + n.ID + suffix
		*list = append(*list, planOp{
			span: span,
			op:   op,
			run:  f.run,
			each: f.each,
			rows: f.rows,
			site: obs.NewOp(log, span, op, flops,
				opBytes(g, n, op, nnz, backward, opt.Train, opt.DType.Size()), swept),
		})
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
	for _, n := range g.dag.Nodes() {
		s := sp(n)
		ax, _, coll := collective(n.Op)
		if !here(n) && !coll {
			continue // a diagonal rank's op; collectives run on every rank
		}
		switch n.Op {
		case "input":
			continue
		case bcastOps[ax]:
			emit(&p.fwd, n, "", n.Op, opFns{run: opBcastForward(w, ax, sp(n.Inputs[0]), s)})
		case reduceOps[ax]:
			emit(&p.fwd, n, "", n.Op, opFns{run: opCollective(w, sp(n.Inputs[0]), false, reduceAlong(ax))})
		case "mask":
			if fusedMask[n] || attnSrc[n] {
				continue
			}
			emit(&p.fwd, n, "", "mask",
				opSample(pat, cuts, s.vals, composeScore(sp, n.Inputs[1]), maskWeights(s), rowOff, false))
		case "softmax":
			if attnSrc[n] {
				continue
			}
			in := n.Inputs[0]
			switch {
			case grid != nil:
				op, src := "softmax", sp(in).vals
				sample := func(i int, row []T) { copy(row, src[pat.RowPtr[i]:pat.RowPtr[i+1]]) }
				if fusedMask[in] {
					op = "fused-softmax"
					sample = rowSampler(pat, composeScore(sp, in.Inputs[1]).row, maskWeights(sp(in)), rowOff, false)
				}
				emit(&p.fwd, n, "", op, opFns{run: opSoftmaxGrid(w, pat, cuts, sample, s.vals, rowStat)})
			case fusedMask[in]:
				emit(&p.fwd, n, "", "fused-softmax",
					opSample(pat, cuts, s.vals, composeScore(sp, in.Inputs[1]), maskWeights(sp(in)), rowOff, true))
			default:
				emit(&p.fwd, n, "", "softmax", opRowSoftmax(pat, cuts, sp(in).vals, s.vals))
			}
		case "spmm":
			if src, ok := attnAgg[n]; ok {
				maskN := src
				softmax := false
				if src.Op == "softmax" {
					maskN = src.Inputs[0]
					softmax = true
				}
				emit(&p.fwd, n, "", "fused-attn",
					opAttnFused(pat, cuts, sp(src).vals, composeScore(sp, maskN.Inputs[1]), maskWeights(sp(maskN)),
						rowOff, softmax, sp(n.Inputs[1]), s))
				continue
			}
			emit(&p.fwd, n, "", "spmm", opSpMM(pat, cuts, sparseVals(n.Inputs[0]), sp(n.Inputs[1]), s))
		case "spmm-max", "spmm-min", "spmm-mean":
			emit(&p.fwd, n, "", n.Op, opSemiring(pat, cuts, sparseVals(n.Inputs[0]), sp(n.Inputs[1]), s, s.agg))
		case "concat":
			emit(&p.fwd, n, "", "concat", opConcat(operands(n), s))
		case "mean":
			emit(&p.fwd, n, "", "mean", opMean(operands(n), s))
		case "mm":
			emit(&p.fwd, n, "", "mm", opMM(sp(n.Inputs[0]), sp(n.Inputs[1]), s))
		case "matvec":
			emit(&p.fwd, n, "", "matvec", opMatVec(sp(n.Inputs[0]), sp(n.Inputs[1]), s))
		case "rownorm":
			emit(&p.fwd, n, "", "rownorm", opRowNorms(sp(n.Inputs[0]), s))
		case "sigma":
			emit(&p.fwd, n, "", "sigma", opSigma(sp(n.Inputs[0]), s))
		case "gin-combine":
			emit(&p.fwd, n, "", "gin-combine",
				opGINCombine(sp(n.Inputs[0]), sp(n.Inputs[1]), sp(n.Inputs[2]), s, ginOffset(g, n)))
		default:
			if n.Kind == Virtual {
				continue
			}
			return nil, fmt.Errorf("fuse: graph %q: no executable lowering for op %q (node %q)", g.Name, n.Op, n.ID)
		}
	}

	// Backward op list: reverse traversal of the same node order. Dense and
	// vector cotangents accumulate (+=) into zeroed buffers; sparse and
	// virtual cotangents are overwritten by their single consumer.
	if opt.Train {
		nodes := g.dag.Nodes()
		for idx := len(nodes) - 1; idx >= 0; idx-- {
			n := nodes[idx]
			s := sp(n)
			ax, _, coll := collective(n.Op)
			if !here(n) && !coll {
				continue
			}
			var vjp func()
			switch n.Op {
			case "input":
				continue
			case bcastOps[ax]: // mirror pairs: the Aᵀ of Section 5.2
				vjp = opCollective(w, s, true, reduceAlong(ax))
			case reduceOps[ax]:
				vjp = opCollective(w, sp(n.Inputs[0]), true, bcastAlong(ax))
			case "sigma":
				vjp = opSigmaVJP(sp(n.Inputs[0]), s)
			case "mm":
				vjp = opMMVJP(sp(n.Inputs[0]), sp(n.Inputs[1]), s, &partialsScratch[T]{})
			case "matvec":
				vjp = opMatVecVJP(sp(n.Inputs[0]), sp(n.Inputs[1]), s)
			case "rownorm":
				vjp = opRowNormsVJP(sp(n.Inputs[0]), s)
			case "gin-combine":
				vjp = opGINCombineVJP(sp(n.Inputs[0]), sp(n.Inputs[1]), sp(n.Inputs[2]), s, &redScratch[T]{})
			case "concat":
				vjp = opConcatVJP(operands(n), s)
			case "mean":
				vjp = opMeanVJP(operands(n), s)
			case "spmm":
				// The adjacency leaf has neither values nor a cotangent of
				// its own: only the feature half runs, over adjT.
				sam := sp(n.Inputs[0])
				vjp = opSpMMVJP(pat, cuts, cutsT, sam.vals, sam.gvals, tr, adjT, sp(n.Inputs[1]), s)
			case "softmax":
				vjp = opSoftmaxVJP(pat, cuts, s.vals, s.gvals, w, rowStat)
			case "mask":
				// In place; a pattern-only mask — unit weights included — passes
				// its cotangent through.
				if weights := maskWeights(s); weights != nil {
					vjp = opMaskVJP(s.gvals, weights)
				}
			case "mmt":
				vjp = opDotVJP(pat, cuts, cutsT, s.gvals, tr, sp(n.Inputs[0]), sp(n.Inputs[1]))
			case "sqdist":
				vjp = opSqDistVJP(pat, cuts, cutsT, s.gvals, tr, sp(n.Inputs[0]), sp(n.Inputs[1]))
			case "outer":
				vjp = opOuterVJP(pat, cuts, cutsT, s.gvals, tr, sp(n.Inputs[0]), sp(n.Inputs[1]))
			case "divide":
				vjp = opDivVJP(pat, cuts, s.gvals, sp(n.Inputs[0]), sp(n.Inputs[1]))
			case "scale":
				vjp = opScaleVJP(pat, cuts, s.gvals, sp(n.Inputs[0]), sp(n.Inputs[1]), &redScratch[T]{})
			case "rep":
				vjp = opRepVJP(pat, cuts, s.gvals, sp(n.Inputs[0]))
			case "repT":
				vjp = opRepTVJP(cutsT, s.gvals, tr, sp(n.Inputs[0]))
			case "add":
				// Both operands' cotangents are this node's: no work.
			case "lrelu":
				vjp = opLReLUVJP(pat, cuts, s.gvals, sp(n.Inputs[0]), T(s.slope))
			default:
				return nil, fmt.Errorf("fuse: graph %q: no VJP for op %q (node %q)", g.Name, n.Op, n.ID)
			}
			if vjp != nil {
				emit(&p.bwd, n, ".bwd", n.Op, opFns{run: vjp})
			}
		}
	}

	p.stats = PlanStats{
		ForwardOps:     len(p.fwd),
		BackwardOps:    len(p.bwd),
		SoftmaxFused:   len(fusedMask),
		AttnFused:      len(attnAgg),
		OpCounts:       make(map[string]int),
		WorkspaceWords: words,
		DType:          opt.DType,
	}
	for _, grp := range groups {
		p.stats.FusedVirtual += len(grp.Virtual)
		p.stats.Groups = append(p.stats.Groups, grp.String())
	}
	for _, op := range p.fwd {
		p.stats.OpCounts[op.op]++
		p.stats.ForwardFlops += op.site.Flops
		p.stats.ForwardBytes += op.site.Bytes
	}
	for _, op := range p.bwd {
		p.stats.BackwardFlops += op.site.Flops
		p.stats.BackwardBytes += op.site.Bytes
	}
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
func attnFusion(g *Graph, cons map[*Node][]*Node, fusedMask map[*Node]bool, disabled bool) (map[*Node]*Node, map[*Node]bool) {
	agg := make(map[*Node]*Node)
	src := make(map[*Node]bool)
	if disabled {
		return agg, src
	}
	for _, n := range g.dag.Nodes() {
		if n.Op != "spmm" {
			continue
		}
		in := n.Inputs[0]
		if in == g.adj || len(cons[in]) != 1 {
			continue
		}
		switch in.Op {
		case "softmax":
			// Not on a grid: the softmax there exchanges row statistics
			// between its sweeps, so it cannot sit inside a one-pass row.
			if m := in.Inputs[0]; m.Op == "mask" && fusedMask[m] && g.grid == nil {
				agg[n], src[in] = in, true
			}
		case "mask":
			agg[n], src[in] = in, true
		}
	}
	return agg, src
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
// at call time, so the "scale" β is the same value the kernels see.
func composeScore[T elem](sp func(*Node) *spec[T], n *Node) score[T] {
	// dots returns the row evaluator of the virtual X·Yᵀ node m.
	dots := func(m *Node) score[T] {
		xs, ys := sp(m.Inputs[0]), sp(m.Inputs[1])
		return score[T]{gathers: ys, row: func(i int32, cols sparse.Index, dst []T) {
			xd := xs.dense
			k := xd.Cols
			sparse.GatherDots(dst, xd.Data[int(i)*k:int(i)*k+k], cols, ys.dense.Data, k, 0)
		}}
	}
	switch {
	case n.Op == "mmt":
		return dots(n)
	case n.Op == "lrelu" && n.Inputs[0].Op == "add" &&
		n.Inputs[0].Inputs[0].Op == "rep" && n.Inputs[0].Inputs[1].Op == "repT":
		a := n.Inputs[0]
		us, vs := sp(a.Inputs[0].Inputs[0]), sp(a.Inputs[1].Inputs[0])
		slope := T(sp(n).slope)
		return score[T]{row: func(i int32, cols sparse.Index, dst []T) {
			u, v := us.vec[i], vs.vec
			dst = dst[:cols.Len()]
			for q, j := range cols.Cols() {
				s := u + v[j]
				if s < 0 {
					s *= slope
				}
				dst[q] = s
			}
		}}
	case n.Op == "scale" && n.Inputs[0].Op == "divide" &&
		n.Inputs[0].Inputs[0].Op == "mmt" && n.Inputs[0].Inputs[1].Op == "outer":
		d := n.Inputs[0]
		dot := dots(d.Inputs[0])
		as, bs := sp(d.Inputs[1].Inputs[0]), sp(d.Inputs[1].Inputs[1])
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
// composing its inputs' evaluators.
func composeEntry[T elem](sp func(*Node) *spec[T], n *Node) scoreEntry[T] {
	switch n.Op {
	case "mmt":
		xs, ys := sp(n.Inputs[0]), sp(n.Inputs[1])
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
		xs, ys := sp(n.Inputs[0]), sp(n.Inputs[1])
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
		as, bs := sp(n.Inputs[0]), sp(n.Inputs[1])
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
		us := sp(n.Inputs[0])
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
		return func(i, j int32) T {
			s := xs.entry(i, j)
			if s < 0 {
				s *= slope
			}
			return s
		}
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
// The returned matrix is owned by the plan and overwritten by the next
// step.
func (p *Plan) Forward(h *tensor.Dense) *tensor.Dense {
	p.ForwardTyped(tensor.Typed{F64: h})
	return p.Output()
}

// ForwardTyped is Forward on a matrix at either width, returning the result
// at the plan's: a float32 plan binds a float32 input as a float64 plan binds
// a float64 one, and hands its output buffer on as it is. Any plan takes a
// float64 input; a float32 one into a float64 plan is the caller's to widen.
func (p *Plan) ForwardTyped(h tensor.Typed) tensor.Typed {
	if p.released {
		panic("fuse: Forward on a released plan")
	}
	p.checkShape("input", h, p.input)
	p.x.bind(h)
	runOps(p.fwd)
	p.ranForward = true
	return p.x.native(false)
}

// Output returns the result of the latest forward sweep as float64: the
// plan's own buffer at that width, a widened copy (in a buffer acquired on
// first use) at float32.
func (p *Plan) Output() *tensor.Dense { return p.x.dense(false) }

// checkShape panics unless v is what the plan can bind at node m.
func (p *Plan) checkShape(what string, v tensor.Typed, m *meta) {
	if p.offDiag {
		return
	}
	if rows, cols, _ := v.Dims(); rows != m.rows || cols != m.cols {
		panic(fmt.Sprintf("fuse: plan %q %s shape %d×%d, got %d×%d", p.Name, what, m.rows, m.cols, rows, cols))
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
		op.site.Done(t0, obs.Now()-t0)
	}
}

// opCost estimates, from compile-time shapes, the floating-point operations
// and sparse non-zeros one execution of an op sweeps — the Section 6 op
// counts, made concrete per compiled op. Backward variants approximately
// double the forward work (two sweeps: operand cotangent + parameter/value
// cotangent).
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
// buffers, and returns the cotangent of the input (owned by the plan).
func (p *Plan) Backward(g *tensor.Dense) *tensor.Dense {
	p.BackwardTyped(tensor.Typed{F64: g})
	return p.InputGrad()
}

// BackwardTyped is Backward on a cotangent at either width, returning the
// input cotangent at the plan's (see ForwardTyped).
func (p *Plan) BackwardTyped(g tensor.Typed) tensor.Typed {
	if !p.train {
		panic(fmt.Sprintf("fuse: plan %q is inference-only", p.Name))
	}
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
// float64 (see Output).
func (p *Plan) InputGrad() *tensor.Dense { return p.x.dense(true) }

// detach drops the plan's hold on the matrices its last caller bound
// (boundary.detach), so that an idle plan keeps none of them alive; a
// Backward then needs a Forward first again.
func (p *Plan) detach() {
	p.x.detach()
	p.ranForward = false
}

// Release returns every buffer the plan holds to its workspace arena. The
// plan is unusable afterwards; recompiling against the same arena (an
// adjacency rebind, say) recycles the storage.
func (p *Plan) Release() {
	if p.released {
		return
	}
	p.released = true
	p.x.release(p.ws)
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
