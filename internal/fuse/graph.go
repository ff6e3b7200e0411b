package fuse

import (
	"fmt"
	"strings"

	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// This file adds the executable half of the package: a Graph builder that
// co-constructs the analysis DAG of fuse.go together with the execution
// metadata (shapes, parameters, activation functions, score closures)
// needed to compile it into a runnable Plan, so the fusion analysis and the
// runtime always see the same graph.

// ParamRef points at a trainable tensor and its gradient accumulator
// without importing the gnn package (which imports fuse). The plan reads
// Value on every step (so optimizer updates are observed) and accumulates
// into Grad during Backward.
type ParamRef struct {
	Name        string
	Value, Grad *tensor.Dense
}

// Act is an element-wise non-linearity with its derivative, both evaluated
// at the pre-activation value (the gnn.Activation contract).
type Act struct {
	Name string
	F    func(float64) float64
	DF   func(float64) float64
}

// meta is the width-independent description of one DAG node: its shape and
// the op attributes the builder recorded. Compile pairs every meta with a
// spec — the node's buffers at the plan's element width.
type meta struct {
	node       *Node
	rows, cols int // dense shape; rows doubles as vector length

	param    ParamRef // param leaves
	hasParam bool
	act      Act     // sigma nodes
	slope    float64 // lrelu nodes
	weighted bool    // mask nodes: multiply A's stored values in
	agg      string  // spmm nodes: "" (real), "max", "min", "mean"
}

// Graph is a buildable, compilable execution DAG over one sparsity pattern.
// All sparse and virtual nodes live on the pattern of the adjacency matrix
// passed to NewGraph (the repo-wide shared-pattern convention).
type Graph struct {
	Name   string
	dag    *DAG
	pat    *sparse.CSR
	rowOff int
	meta   map[*Node]*meta
	adj    *Node
	input  *Node
	output *Node

	grid    Grid               // non-nil: pat is this rank's block of a process grid (grid.go)
	crossed map[crossing]*Node // broadcasts already lowered, one per (node, axis)
}

// NewGraph starts a graph over adjacency pattern (and values) pat.
func NewGraph(name string, pat *sparse.CSR) *Graph {
	g := &Graph{Name: name, dag: NewDAG(name), pat: pat, meta: make(map[*Node]*meta)}
	g.adj = g.dag.Input("A", Sparse)
	g.meta[g.adj] = &meta{node: g.adj, rows: pat.Rows, cols: pat.Cols}
	return g
}

// DAG exposes the co-constructed analysis DAG (for Analyze).
func (g *Graph) DAG() *DAG { return g.dag }

// Adj returns the adjacency leaf.
func (g *Graph) Adj() *Node { return g.adj }

// SetRowOffset declares that the pattern's rows are a block of a larger
// global matrix starting at global row off — the 1.5D row-distributed
// case. Score closures receive global row indices; dense inputs must then
// be full-height. Row offsets are inference-only.
func (g *Graph) SetRowOffset(off int) { g.rowOff = off }

func (g *Graph) md(v *Node) *meta {
	s, ok := g.meta[v]
	if !ok {
		panic(fmt.Sprintf("fuse: node %q does not belong to graph %q", v.ID, g.Name))
	}
	return s
}

func (g *Graph) add(id, op string, kind Kind, s *meta, inputs ...*Node) *Node {
	n := g.dag.Add(id, op, kind, inputs...)
	s.node = n
	g.meta[n] = s
	return n
}

// InputDense declares the single dense input tensor (the feature matrix H,
// bound anew on every Plan.Forward call).
func (g *Graph) InputDense(id string, rows, cols int) *Node {
	if g.input != nil {
		panic("fuse: graph already has a dense input")
	}
	n := g.dag.Input(id, Dense)
	g.meta[n] = &meta{node: n, rows: rows, cols: cols}
	g.input = n
	return n
}

// ParamNode declares a trainable parameter leaf.
func (g *Graph) ParamNode(id string, p ParamRef) *Node {
	n := g.dag.Input(id, Param)
	g.meta[n] = &meta{node: n, rows: p.Value.Rows, cols: p.Value.Cols,
		param: p, hasParam: true}
	return n
}

func (g *Graph) virtual(id, op string, s *meta, inputs ...*Node) *Node {
	s.rows, s.cols = g.pat.Rows, g.pat.Cols
	return g.add(id, op, Virtual, s, inputs...)
}

// DotScores builds the virtual X·Yᵀ score matrix (op "mmt"): entry (i, j)
// is X[i,:]·Y[j,:].
func (g *Graph) DotScores(id string, x, y *Node) *Node {
	xs, ys := g.md(x), g.md(y)
	if xs.cols != ys.cols {
		panic(fmt.Sprintf("fuse: DotScores inner dim mismatch %d vs %d", xs.cols, ys.cols))
	}
	return g.virtual(id, "mmt", &meta{}, g.cross(x, AlongRow), g.cross(y, AlongCol))
}

// SqDistScores builds the virtual squared-distance matrix (op "sqdist"):
// entry (i, j) is ‖X[i,:] − Y[j,:]‖², the score of distance-decayed
// (Gaussian-kernel) attention.
func (g *Graph) SqDistScores(id string, x, y *Node) *Node {
	if xs, ys := g.md(x), g.md(y); xs.cols != ys.cols {
		panic(fmt.Sprintf("fuse: SqDistScores width mismatch %d vs %d", xs.cols, ys.cols))
	}
	return g.virtual(id, "sqdist", &meta{}, g.cross(x, AlongRow), g.cross(y, AlongCol))
}

// OuterScores builds the virtual outer product a·bᵀ of two vectors.
func (g *Graph) OuterScores(id string, a, b *Node) *Node {
	g.wantKind(a, Vector, "OuterScores")
	g.wantKind(b, Vector, "OuterScores")
	return g.virtual(id, "outer", &meta{}, g.cross(a, AlongRow), g.cross(b, AlongCol))
}

// DivScores builds the virtual element-wise quotient num ⊘ den; entries
// with a zero denominator evaluate to 0 (the zero-norm guard).
func (g *Graph) DivScores(id string, num, den *Node) *Node {
	g.wantKind(num, Virtual, "DivScores")
	g.wantKind(den, Virtual, "DivScores")
	return g.virtual(id, "divide", &meta{}, num, den)
}

// ScaleScores multiplies a virtual matrix by a scalar parameter (AGNN's β).
func (g *Graph) ScaleScores(id string, x, beta *Node) *Node {
	g.wantKind(x, Virtual, "ScaleScores")
	bs := g.md(beta)
	if !bs.hasParam || bs.rows != 1 || bs.cols != 1 {
		panic("fuse: ScaleScores needs a 1×1 parameter")
	}
	return g.virtual(id, "scale", &meta{}, x, beta)
}

// RepRow broadcasts vector u over columns: the virtual u·1ᵀ (op "rep").
func (g *Graph) RepRow(id string, u *Node) *Node {
	g.wantKind(u, Vector, "RepRow")
	return g.virtual(id, "rep", &meta{}, g.cross(u, AlongRow))
}

// RepCol broadcasts vector v over rows: the virtual 1·vᵀ (op "repT").
func (g *Graph) RepCol(id string, v *Node) *Node {
	g.wantKind(v, Vector, "RepCol")
	return g.virtual(id, "repT", &meta{}, g.cross(v, AlongCol))
}

// AddScores builds the virtual element-wise sum of two virtual matrices.
func (g *Graph) AddScores(id string, a, b *Node) *Node {
	g.wantKind(a, Virtual, "AddScores")
	g.wantKind(b, Virtual, "AddScores")
	return g.virtual(id, "add", &meta{}, a, b)
}

// LReLUScores applies LeakyReLU with the given negative slope to a virtual
// matrix (GAT's score non-linearity).
func (g *Graph) LReLUScores(id string, x *Node, slope float64) *Node {
	g.wantKind(x, Virtual, "LReLUScores")
	return g.virtual(id, "lrelu", &meta{slope: slope}, x)
}

// Mask samples a virtual matrix through the adjacency pattern — the
// SDDMM-like sparse node that terminates a fusion group. With weighted,
// each sampled score is multiplied by A's stored value (the true Hadamard
// A ⊙ C); without, only the pattern is used (GAT's convention).
func (g *Graph) Mask(id string, virt *Node, weighted bool) *Node {
	g.wantKind(virt, Virtual, "Mask")
	s := &meta{rows: g.pat.Rows, cols: g.pat.Cols, weighted: weighted}
	return g.add(id, "mask", Sparse, s, g.adj, virt)
}

// Softmax applies the per-row (per-neighborhood) softmax to a sparse node.
func (g *Graph) Softmax(id string, s *Node) *Node {
	g.wantKind(s, Sparse, "Softmax")
	sp := &meta{rows: g.pat.Rows, cols: g.pat.Cols}
	return g.add(id, "softmax", Sparse, sp, s)
}

// RowNormsNode computes the row L2 norms of a dense node.
func (g *Graph) RowNormsNode(id string, x *Node) *Node {
	xs := g.md(x)
	return g.add(id, "rownorm", Vector, &meta{rows: xs.rows}, x)
}

// MatVecNode computes X·a for a k×1 parameter a (GAT's u = H'·a₁).
func (g *Graph) MatVecNode(id string, x, a *Node) *Node {
	xs, as := g.md(x), g.md(a)
	if !as.hasParam || as.rows != xs.cols || as.cols != 1 {
		panic(fmt.Sprintf("fuse: MatVecNode needs a %d×1 parameter", xs.cols))
	}
	return g.add(id, "matvec", Vector, &meta{rows: xs.rows}, x, a)
}

// MM multiplies a dense node by a parameter: X·W.
func (g *Graph) MM(id string, x, w *Node) *Node {
	xs, ws := g.md(x), g.md(w)
	if !ws.hasParam {
		panic("fuse: MM weight must be a parameter node")
	}
	if xs.cols != ws.rows {
		panic(fmt.Sprintf("fuse: MM inner dim mismatch %d vs %d", xs.cols, ws.rows))
	}
	return g.add(id, "mm", Dense, &meta{rows: xs.rows, cols: ws.cols}, x, w)
}

// SpMM aggregates a dense node through a sparse node (or the adjacency
// leaf) over the real semiring: Ψ·X.
func (g *Graph) SpMM(id string, s, x *Node) *Node {
	g.wantKind(s, Sparse, "SpMM")
	xs := g.md(x)
	if xs.rows != g.pat.Cols {
		panic(fmt.Sprintf("fuse: SpMM feature height %d != pattern cols %d", xs.rows, g.pat.Cols))
	}
	z := &meta{rows: g.pat.Rows, cols: xs.cols}
	if g.grid == nil {
		return g.add(id, "spmm", Dense, z, s, x)
	}
	part := g.add(id+".part", "spmm", Dense, z, s, g.cross(x, AlongCol))
	return g.add(id, reduceOps[AlongRow], Dense, &meta{rows: z.rows, cols: z.cols}, part)
}

// SpMMSemiring aggregates over a non-real semiring ("max", "min", "mean" —
// Section 4.3): the aggregation primitive with its reducer as a parameter.
// Semiring aggregations are forward-only and single-node (Compile refuses
// them in training plans and on a grid).
func (g *Graph) SpMMSemiring(id string, s, x *Node, kind string) *Node {
	switch kind {
	case "max", "min", "mean":
	default:
		panic(fmt.Sprintf("fuse: unknown semiring %q", kind))
	}
	g.wantKind(s, Sparse, "SpMMSemiring")
	xs := g.md(x)
	sp := &meta{rows: g.pat.Rows, cols: xs.cols, agg: kind}
	return g.add(id, "spmm-"+kind, Dense, sp, s, x)
}

// GINCombine builds GIN's pre-MLP combination agg + (1+ε)·h with a scalar
// parameter ε. When agg has the pattern's rows and h the input's full
// height — a row block, at a row offset or not — row i of agg combines with
// row rowOff+i of h.
func (g *Graph) GINCombine(id string, agg, h, eps *Node) *Node {
	as, hs := g.md(agg), g.md(h)
	es := g.md(eps)
	block := as.rows == g.pat.Rows && hs.rows == g.pat.Cols
	if (as.rows != hs.rows && !block) || as.cols != hs.cols {
		panic(fmt.Sprintf("fuse: GINCombine shape mismatch: %d×%d aggregate, %d×%d features", as.rows, as.cols, hs.rows, hs.cols))
	}
	if !es.hasParam || es.rows != 1 || es.cols != 1 {
		panic("fuse: GINCombine needs a 1×1 parameter ε")
	}
	return g.add(id, "gin-combine", Dense, &meta{rows: as.rows, cols: as.cols}, agg, h, eps)
}

// ConcatCols joins dense nodes of one height side by side, [X₁ ‖ X₂ ‖ …] —
// how a hidden layer combines its attention heads.
func (g *Graph) ConcatCols(id string, xs ...*Node) *Node { return g.combine(id, "concat", xs) }

// Mean averages dense nodes of one shape element-wise — how a final layer
// combines its attention heads.
func (g *Graph) Mean(id string, xs ...*Node) *Node { return g.combine(id, "mean", xs) }

func (g *Graph) combine(id, op string, xs []*Node) *Node {
	first, cols := g.md(xs[0]), 0
	for _, x := range xs {
		g.wantKind(x, Dense, op)
		s := g.md(x)
		if s.rows != first.rows || (op == "mean" && s.cols != first.cols) {
			panic(fmt.Sprintf("fuse: %s operand %q is %d×%d, the first %d×%d", op, x.ID, s.rows, s.cols, first.rows, first.cols))
		}
		cols += s.cols
	}
	if op == "mean" {
		cols = first.cols
	}
	return g.add(id, op, Dense, &meta{rows: first.rows, cols: cols}, xs...)
}

// Sigma applies an element-wise activation to a dense node.
func (g *Graph) Sigma(id string, z *Node, act Act) *Node {
	zs := g.md(z)
	return g.add(id, "sigma", Dense, &meta{rows: zs.rows, cols: zs.cols, act: act}, z)
}

// SetOutput marks the graph's output node (must be dense).
func (g *Graph) SetOutput(v *Node) {
	g.wantKind(v, Dense, "SetOutput")
	g.output = v
}

// OutputCols returns the width of the output node.
func (g *Graph) OutputCols() int { return g.md(g.output).cols }

// OutputRows returns the height of the output node.
func (g *Graph) OutputRows() int { return g.md(g.output).rows }

// Radius returns how many hops of the adjacency one output row reads: the
// largest number of aggregations (spmm-family ops) on any path from the
// dense input to the output.
func (g *Graph) Radius() int {
	hops := make(map[*Node]int) // the nodes that read the input
	for _, n := range g.dag.Nodes() {
		h, reads := 0, n == g.input
		for _, in := range n.Inputs {
			if d, ok := hops[in]; ok {
				h, reads = max(h, d), true
			}
		}
		if !reads {
			continue
		}
		if strings.HasPrefix(n.Op, "spmm") {
			h++
		}
		hops[n] = h
	}
	return hops[g.output]
}

func (g *Graph) wantKind(v *Node, k Kind, op string) {
	if g.md(v).node.Kind != k {
		panic(fmt.Sprintf("fuse: %s wants a %s node, got %s %q", op, k, v.Kind, v.ID))
	}
}
