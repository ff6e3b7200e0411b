// Package distgnn implements the paper's distributed execution strategies
// on the simulated runtime of internal/dist:
//
//   - GlobalEngine — the communication-minimizing global formulation
//     (Sections 6.3 and 7.1): the adjacency matrix (and every matrix with
//     its pattern: attention scores Ψ, their gradients) is sliced into
//     √p × √p stationary blocks on a 2D process grid; feature blocks are
//     broadcast along grid columns, partial sums are reduced along grid
//     rows, and softmax row statistics travel as length-n/√p vectors. Per
//     layer, every rank sends O(nk/√p + k²) words. The same engine on the
//     p×1 grid (NewRowGrid) is the 1D row layout, the family's other end:
//     rank i keeps the row block A_i*, and every layer gathers the whole
//     feature matrix, Θ(nk) words per rank whatever p.
//
//   - LocalEngine — the DistDGL-like local-formulation baseline: a 1D
//     vertex partition where each rank pulls the feature rows of all remote
//     neighbors of its owned vertices (halo exchange), moving up to
//     Θ(nkd/p) words per layer, plus a mini-batch training mode matching
//     DistDGL's 16k-vertex batches.
package distgnn

import (
	"fmt"

	"agnn/internal/dist"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// GlobalEngine is one rank's endpoint of the distributed global-formulation
// execution. All ranks construct it with identical arguments (SPMD); the
// constructor slices out this rank's stationary adjacency block and derives
// the row/column communicators. The model is the one gnn.New builds — same
// layers, same parameters in the same order — bound to the block and the
// grid: each layer's DAG is lowered by fuse with the grid's collectives as
// plan ops (fuse/grid.go), so the engine itself holds no model arithmetic.
type GlobalEngine struct {
	C        *dist.Comm
	PR, PC   int // grid rows × columns: √p×√p, or p×1
	BR, BC   int // block rows npad/PR (a feature block's) × columns npad/PC
	N, NPad  int
	GridRow  int        // i of this rank = (i, j)
	GridCol  int        // j
	Row, Col *dist.Comm // row and column sub-communicators
	Diag     bool       // the diagonal of grid row i: owns feature block GridRow

	ABlk  *sparse.CSR // stationary block A_{ij}, BR×BC
	Cfg   gnn.Config
	model *gnn.Model

	// stage is the wire buffer of the collectives the engine issues itself,
	// for the engine's lifetime: the packed gradients of AllreduceGrads and
	// the two loss sums of EvalLoss.
	stage []float64
	// loss evaluates the diagonal rank's block on every step, into the
	// gradient it owns.
	loss gnn.CrossEntropyLoss
}

// NewGlobalEngine builds the engine on communicator c. The adjacency matrix
// a is passed replicated and unpreprocessed — shared read-only by the ranks
// of one process — and each rank cuts its own block from it with the
// model's preprocessing applied inside the block (graph.Block), so no rank
// copies the whole graph. In a production deployment each rank would
// generate or load only its block (as the paper's artifact does with the
// distributed Kronecker generator); replicating it here is a setup-time
// convenience that does not touch the measured per-layer communication.
func NewGlobalEngine(c *dist.Comm, a *sparse.CSR, cfg gnn.Config) (*GlobalEngine, error) {
	s, err := graph.SquareGrid(c.Size())
	if err != nil {
		return nil, err
	}
	return newGrid(c, a, cfg, s, s)
}

// NewRowGrid builds the engine on the p×1 grid, the 1D row layout: rank i
// keeps row block i of the adjacency over all its columns, and every layer
// gathers each column-side operand whole (fuse/grid.go). It runs the square
// grid's DAGs, training included, at Θ(nk) words per rank and layer
// whatever p.
func NewRowGrid(c *dist.Comm, a *sparse.CSR, cfg gnn.Config) (*GlobalEngine, error) {
	return newGrid(c, a, cfg, c.Size(), 1)
}

// newGrid builds the engine on a pr×pc grid, √p×√p or p×1.
func newGrid(c *dist.Comm, a *sparse.CSR, cfg gnn.Config, pr, pc int) (*GlobalEngine, error) {
	cfg = cfg.Defaults()
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("distgnn: adjacency must be square")
	}
	n := a.Rows
	npad := graph.PadTo(n, pr)
	e := gridPosition(c, pr, pc)
	e.BR, e.BC, e.N, e.NPad = npad/pr, npad/pc, n, npad
	e.ABlk = graph.Block(a, cfg.Prep(), e.GridRow*e.BR, e.GridCol*e.BC, e.BR, e.BC)
	e.Cfg = cfg
	// Replicated parameters: every rank seeds the same RNG, so weights are
	// bit-identical without any broadcast (the paper replicates W and a
	// across all processes).
	var err error
	if e.model, err = gnn.NewBound(cfg, e.ABlk, &blockGrid{e}); err != nil {
		return nil, err
	}
	words := 0
	for _, p := range e.Params() {
		words += len(p.Grad.Data)
	}
	e.stage = make([]float64, max(words, 2))
	return e, nil
}

// gridPosition places world rank c at (i, j) of a pr×pc grid, row-major,
// and derives its row and column communicators. Row i's diagonal is (i, i),
// or on the p×1 grid its one rank.
func gridPosition(c *dist.Comm, pr, pc int) *GlobalEngine {
	i, j := c.Rank()/pc, c.Rank()%pc
	rowRanks := make([]int, pc)
	colRanks := make([]int, pr)
	for t := range rowRanks {
		rowRanks[t] = i*pc + t
	}
	for t := range colRanks {
		colRanks[t] = t*pc + j
	}
	return &GlobalEngine{C: c, PR: pr, PC: pc, GridRow: i, GridCol: j, Diag: i == j || pc == 1,
		Row: c.Group(rowRanks), Col: c.Group(colRanks)}
}

// Close releases the engine's plans, returning their storage to the
// workspace arena. The plans close over this rank's communicators, so an
// engine that is done — or whose world has failed — must not keep them. The
// engine must not run after Close.
func (e *GlobalEngine) Close() { e.model.ReleasePlans() }

// blockGrid is fuse.Grid over the engine's row and column communicators:
// everything a lowered layer plan sends. On the square grid every broadcast
// and reduce moves O(B·k) = O(nk/√p) words per rank, the softmax statistics
// B; on the p×1 grid the column's gathers and reduce-scatters (p−1)·B·k;
// parameter gradients contribute the +k² term via AllreduceGrads.
type blockGrid struct{ e *GlobalEngine }

func (g *blockGrid) Diag() bool { return g.e.Diag }

func (g *blockGrid) Along(ax fuse.Axis) (int, int) {
	if ax == fuse.AlongRow {
		return g.e.GridCol, g.e.PC
	}
	return g.e.GridRow, g.e.PR
}

// along returns the communicator of an axis, the diagonal rank's index in
// it — rank (i, i) is column i of row i and row j of column j — and whether
// every rank of it is a diagonal (the p×1 grid's column).
func (g *blockGrid) along(ax fuse.Axis) (c *dist.Comm, root int, all bool) {
	if ax == fuse.AlongRow {
		return g.e.Row, g.e.GridRow, false
	}
	return g.e.Col, g.e.GridCol, g.e.PC == 1
}

// The collectives run in the plan's own buffer: chunks are sent from it,
// reduced into it and received into it.

func (g *blockGrid) Bcast(ax fuse.Axis, buf []float64) {
	if c, root, all := g.along(ax); all {
		c.AllgatherInto(buf)
	} else {
		c.BcastInto(buf, root)
	}
}

func (g *blockGrid) ReduceToDiag(ax fuse.Axis, buf []float64) {
	if c, root, all := g.along(ax); all {
		c.ReduceScatterInto(buf)
	} else {
		c.ReduceInto(buf, root)
	}
}

func (g *blockGrid) AllreduceRow(buf []float64, max bool) {
	op := dist.OpSum
	if max {
		op = dist.OpMax
	}
	g.e.Row.AllreduceOpInto(buf, op)
}

// OwnedRange returns the [lo, hi) global vertex range of the feature block
// owned by this rank's diagonal position (meaningful on diagonal ranks).
func (e *GlobalEngine) OwnedRange() (int, int) {
	lo := min(e.GridRow*e.BR, e.N)
	return lo, min(lo+e.BR, e.N)
}

// SliceOwnedBlock returns this rank's diagonal feature block, BR rows, of a
// replicated full feature matrix h; nil on off-diagonal ranks. A whole block
// (hi−lo == BR) is a row view of h that shares its storage: the engine only
// reads it, so h must stay as it is while the block is in use. A ragged last
// block is a copy, zero-padded to BR rows.
func (e *GlobalEngine) SliceOwnedBlock(h *tensor.Dense) *tensor.Dense {
	if !e.Diag {
		return nil
	}
	lo, hi := e.OwnedRange()
	if hi-lo == e.BR {
		return h.SliceRows(lo, hi)
	}
	out := tensor.NewDense(e.BR, h.Cols)
	for r := lo; r < hi; r++ {
		copy(out.Row(r-lo), h.Row(r))
	}
	return out
}

// Forward runs all layers — the model's own loop, every layer's plan lowered
// onto the grid and laid out in the model's step (gnn.Model.Forward); xd is
// the diagonal-owned input block (nil off-diagonal) and the return value is
// the diagonal-owned output block, a buffer of that step.
func (e *GlobalEngine) Forward(xd *tensor.Dense, training bool) *tensor.Dense {
	return e.model.Forward(xd, training)
}

// Backward propagates the diagonal-owned output gradient through all layers
// and returns the input-feature gradient block.
func (e *GlobalEngine) Backward(gd *tensor.Dense) *tensor.Dense {
	return e.model.Backward(gd)
}

// Params returns this rank's (replicated) parameters.
func (e *GlobalEngine) Params() []*gnn.Param { return e.model.Params() }

// ZeroGrad clears all parameter gradients.
func (e *GlobalEngine) ZeroGrad() { e.model.ZeroGrad() }

// AllreduceGrads sums parameter gradients across all ranks (volume O(k²)
// per parameter matrix — the +k² term of the communication bound). After
// this every rank holds identical gradients and can step its optimizer
// locally, keeping the replicated weights in sync.
func (e *GlobalEngine) AllreduceGrads() {
	sp := e.C.StartSpan("allreduce_grads")
	defer sp.End()
	ps := e.Params()
	buf := e.stage[:0]
	for _, p := range ps {
		buf = append(buf, p.Grad.Data...)
	}
	e.C.AllreduceInto(buf)
	off := 0
	for _, p := range ps {
		off += copy(p.Grad.Data, buf[off:])
	}
}

// GatherOutput assembles the full output matrix on world rank 0 from the
// diagonal-owned blocks (test/reporting helper; not part of the training
// path). Other ranks return nil.
func (e *GlobalEngine) GatherOutput(out *tensor.Dense, cols int) *tensor.Dense {
	var payload []float64
	if e.Diag {
		payload = out.Data
	}
	parts := e.C.Gatherv(payload, 0)
	if e.C.Rank() != 0 {
		return nil
	}
	full := tensor.NewDense(e.N, cols)
	for r := 0; r < e.C.Size(); r++ {
		if len(parts[r]) == 0 {
			continue
		}
		d := r / e.PC // the grid row whose diagonal world rank r is
		blk := tensor.NewDenseFrom(e.BR, cols, parts[r])
		lo := d * e.BR
		for i := 0; i < e.BR && lo+i < e.N; i++ {
			copy(full.Row(lo+i), blk.Row(i))
		}
	}
	return full
}
