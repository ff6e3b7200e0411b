// Package distgnn implements the paper's distributed execution strategies
// on the simulated runtime of internal/dist:
//
//   - GlobalEngine — the communication-minimizing global formulation
//     (Sections 6.3 and 7.1): the adjacency matrix (and every matrix with
//     its pattern: attention scores Ψ, their gradients) is sliced into
//     √p × √p stationary blocks on a 2D process grid; feature blocks are
//     broadcast along grid columns, partial sums are reduced along grid
//     rows, and softmax row statistics travel as length-n/√p vectors. Per
//     layer, every rank sends O(nk/√p + k²) words.
//
//   - LocalEngine — the DistDGL-like local-formulation baseline: a 1D
//     vertex partition where each rank pulls the feature rows of all remote
//     neighbors of its owned vertices (halo exchange), moving up to
//     Θ(nkd/p) words per layer, plus a mini-batch training mode matching
//     DistDGL's 16k-vertex batches.
package distgnn

import (
	"fmt"
	"math/rand"

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
// the row/column communicators.
type GlobalEngine struct {
	C        *dist.Comm
	S        int // grid side √p
	B        int // block size npad/S
	N, NPad  int
	GridRow  int        // i of this rank = (i, j)
	GridCol  int        // j
	Row, Col *dist.Comm // row and column sub-communicators
	Diag     bool       // i == j: owns feature block GridRow

	ABlk   *sparse.CSR // stationary block A_{ij}, B×B
	Cfg    gnn.Config
	layers []gridLayer

	// Precomputed span names so the traced path does no formatting.
	spanFwd, spanBwd []string
}

// gridLayer is one distributed layer. Every rank calls forward/backward;
// xd / gd are the diagonal-owned feature blocks (nil on off-diagonal
// ranks), and the return value follows the same convention.
type gridLayer interface {
	forward(e *GlobalEngine, xd *tensor.Dense, training bool) *tensor.Dense
	backward(e *GlobalEngine, gd *tensor.Dense) *tensor.Dense
	params() []*gnn.Param
}

// rowRef adapts a gnn.Param to the fuse runtime for the block plans of
// gridmodels.go.
func rowRef(p *gnn.Param) fuse.ParamRef {
	return fuse.ParamRef{Name: p.Name, Value: p.Value, Grad: p.Grad}
}

// NewGlobalEngine builds the engine on communicator c. The adjacency matrix
// a is passed replicated: in a production deployment each rank would
// generate or load only its block (as the paper's artifact does with the
// distributed Kronecker generator); replicating it here is a setup-time
// convenience that does not touch the measured per-layer communication.
func NewGlobalEngine(c *dist.Comm, a *sparse.CSR, cfg gnn.Config) (*GlobalEngine, error) {
	cfg = cfg.Defaults()
	if cfg.DType != tensor.F64 {
		return nil, fmt.Errorf("distgnn: the global 2D engine requires f64 (got DType=%s); f32 plans cover the single-node layers and the 1D row engine", cfg.DType)
	}
	s, err := graph.SquareGrid(c.Size())
	if err != nil {
		return nil, err
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("distgnn: adjacency must be square")
	}
	// Model-specific preprocessing, identical to gnn.New.
	switch cfg.Model {
	case gnn.GCN:
		a = graph.NormalizeGCN(a)
	default:
		if cfg.SelfLoops {
			a = graph.AddSelfLoops(a)
		}
	}
	n := a.Rows
	npad := graph.PadTo(n, s)
	b := npad / s
	i, j := c.Rank()/s, c.Rank()%s

	rowRanks := make([]int, s)
	colRanks := make([]int, s)
	for t := 0; t < s; t++ {
		rowRanks[t] = i*s + t
		colRanks[t] = t*s + j
	}
	e := &GlobalEngine{
		C: c, S: s, B: b, N: n, NPad: npad,
		GridRow: i, GridCol: j,
		Row:  c.Group(rowRanks),
		Col:  c.Group(colRanks),
		Diag: i == j,
		ABlk: graph.Block2D(a, i, j, b),
		Cfg:  cfg,
	}
	// Replicated parameters: every rank seeds the same RNG, so weights are
	// bit-identical without any broadcast (the paper replicates W and a
	// across all processes).
	rng := rand.New(rand.NewSource(cfg.Seed))
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.HiddenDim
		if cfg.Model == gnn.GAT && cfg.Heads > 1 {
			in = cfg.Heads * cfg.HiddenDim
		}
		if l == 0 {
			in = cfg.InDim
		}
		out := cfg.HiddenDim
		act := cfg.Activation
		if l == cfg.Layers-1 {
			out = cfg.OutDim
			act = gnn.Identity()
		}
		var gl gridLayer
		switch cfg.Model {
		case gnn.VA:
			gl = newGridVA(in, out, act, rng)
		case gnn.AGNN:
			gl = newGridAGNN(in, out, act, rng)
		case gnn.GAT:
			if cfg.Heads > 1 {
				if l == cfg.Layers-1 {
					gl = newGridMultiGAT(in, out, cfg.Heads, false, act, cfg.NegSlope, rng)
				} else {
					gl = newGridMultiGAT(in, cfg.HiddenDim, cfg.Heads, true, act, cfg.NegSlope, rng)
				}
			} else {
				gl = newGridGAT(in, out, act, cfg.NegSlope, rng)
			}
		case gnn.GCN:
			gl = newGridGCN(in, out, act, rng)
		default:
			return nil, fmt.Errorf("distgnn: unsupported model %v", cfg.Model)
		}
		e.layers = append(e.layers, gl)
		e.spanFwd = append(e.spanFwd, fmt.Sprintf("layer%d.forward(%s)", l, cfg.Model))
		e.spanBwd = append(e.spanBwd, fmt.Sprintf("layer%d.backward(%s)", l, cfg.Model))
	}
	return e, nil
}

// OwnedRange returns the [lo, hi) global vertex range of the feature block
// owned by this rank's diagonal position (meaningful on diagonal ranks).
func (e *GlobalEngine) OwnedRange() (int, int) {
	lo := e.GridRow * e.B
	hi := lo + e.B
	if hi > e.N {
		hi = e.N
	}
	if lo > e.N {
		lo = e.N
	}
	return lo, hi
}

// SliceOwnedBlock extracts this rank's diagonal feature block (padded to B
// rows) from a replicated full feature matrix; nil on off-diagonal ranks.
func (e *GlobalEngine) SliceOwnedBlock(h *tensor.Dense) *tensor.Dense {
	if !e.Diag {
		return nil
	}
	out := tensor.NewDense(e.B, h.Cols)
	lo, hi := e.OwnedRange()
	for r := lo; r < hi; r++ {
		copy(out.Row(r-lo), h.Row(r))
	}
	return out
}

// Forward runs all layers; xd is the diagonal-owned input block (nil
// off-diagonal) and the return value is the diagonal-owned output block.
func (e *GlobalEngine) Forward(xd *tensor.Dense, training bool) *tensor.Dense {
	for i, l := range e.layers {
		sp := e.C.StartSpan(e.spanFwd[i])
		xd = l.forward(e, xd, training)
		sp.End()
	}
	return xd
}

// Backward propagates the diagonal-owned output gradient through all layers
// and returns the input-feature gradient block.
func (e *GlobalEngine) Backward(gd *tensor.Dense) *tensor.Dense {
	for i := len(e.layers) - 1; i >= 0; i-- {
		sp := e.C.StartSpan(e.spanBwd[i])
		gd = e.layers[i].backward(e, gd)
		sp.End()
	}
	return gd
}

// Params returns this rank's (replicated) parameters.
func (e *GlobalEngine) Params() []*gnn.Param {
	var ps []*gnn.Param
	for _, l := range e.layers {
		ps = append(ps, l.params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (e *GlobalEngine) ZeroGrad() {
	for _, p := range e.Params() {
		p.ZeroGrad()
	}
}

// AllreduceGrads sums parameter gradients across all ranks (volume O(k²)
// per parameter matrix — the +k² term of the communication bound). After
// this every rank holds identical gradients and can step its optimizer
// locally, keeping the replicated weights in sync.
func (e *GlobalEngine) AllreduceGrads() {
	sp := e.C.StartSpan("allreduce_grads")
	defer sp.End()
	ps := e.Params()
	total := 0
	for _, p := range ps {
		total += len(p.Grad.Data)
	}
	buf := make([]float64, 0, total)
	for _, p := range ps {
		buf = append(buf, p.Grad.Data...)
	}
	buf = e.C.Allreduce(buf)
	off := 0
	for _, p := range ps {
		copy(p.Grad.Data, buf[off:off+len(p.Grad.Data)])
		off += len(p.Grad.Data)
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
		d := r / e.S // diagonal index of rank (d, d)
		blk := tensor.NewDenseFrom(e.B, cols, parts[r])
		lo := d * e.B
		for i := 0; i < e.B && lo+i < e.N; i++ {
			copy(full.Row(lo+i), blk.Row(i))
		}
	}
	return full
}

// --- shared collective helpers -------------------------------------------

// bcastRowBlock broadcasts the diagonal rank's matrix block along this
// rank's grid row: after the call every rank (i, *) holds block_i.
func (e *GlobalEngine) bcastRowBlock(m *tensor.Dense, cols int) *tensor.Dense {
	var data []float64
	if e.Diag {
		data = m.Data
	}
	out := e.Row.Bcast(data, e.GridRow) // root: rank (i, i) is column i of row i
	return tensor.NewDenseFrom(e.B, cols, out)
}

// bcastColBlock broadcasts the diagonal rank's matrix block along this
// rank's grid column: after the call every rank (*, j) holds block_j.
func (e *GlobalEngine) bcastColBlock(m *tensor.Dense, cols int) *tensor.Dense {
	var data []float64
	if e.Diag {
		data = m.Data
	}
	out := e.Col.Bcast(data, e.GridCol) // root: rank (j, j) is row j of column j
	return tensor.NewDenseFrom(e.B, cols, out)
}

// bcastRowVec / bcastColVec broadcast length-B vectors the same way.
func (e *GlobalEngine) bcastRowVec(v []float64) []float64 {
	var data []float64
	if e.Diag {
		data = v
	}
	return e.Row.Bcast(data, e.GridRow)
}

func (e *GlobalEngine) bcastColVec(v []float64) []float64 {
	var data []float64
	if e.Diag {
		data = v
	}
	return e.Col.Bcast(data, e.GridCol)
}

// reduceRowToDiag sums per-rank matrices along the grid row onto the
// diagonal rank (i, i); off-diagonal ranks return nil.
func (e *GlobalEngine) reduceRowToDiag(m *tensor.Dense, cols int) *tensor.Dense {
	res := e.Row.Reduce(m.Data, e.GridRow)
	if res == nil {
		return nil
	}
	return tensor.NewDenseFrom(e.B, cols, res)
}

// reduceColToDiag sums along the grid column onto rank (j, j).
func (e *GlobalEngine) reduceColToDiag(m *tensor.Dense, cols int) *tensor.Dense {
	res := e.Col.Reduce(m.Data, e.GridCol)
	if res == nil {
		return nil
	}
	return tensor.NewDenseFrom(e.B, cols, res)
}

// reduceRowVecToDiag / reduceColVecToDiag reduce length-B vectors.
func (e *GlobalEngine) reduceRowVecToDiag(v []float64) []float64 {
	return e.Row.Reduce(v, e.GridRow)
}

func (e *GlobalEngine) reduceColVecToDiag(v []float64) []float64 {
	return e.Col.Reduce(v, e.GridCol)
}
