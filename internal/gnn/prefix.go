package gnn

import (
	"fmt"

	"agnn/internal/fuse"
	"agnn/internal/obs"
	"agnn/internal/tensor"
)

// Prefix is the vertex-local prefix of a model's first layer evaluated over a
// whole feature matrix: the part of the layer's DAG whose row i depends only
// on row i of the features and on the parameters (fuse.Graph.Frontier — GAT's
// H·W, u and v). A model whose parameters stay put can evaluate it once and
// answer any subgraph query from its tables (ForwardFrom) instead of
// recomputing them: every prefix op computes a row the same way whatever the
// height, so the answer keeps its bits.
type Prefix struct {
	// Frontier names the prefix nodes the rest of the layer reads, in DAG
	// order: just the input "H" when nothing row-local follows it.
	Frontier []string
	// Tables holds, per frontier node, its value for every vertex at the
	// layer's element width: row v is vertex v's, a vector node's one
	// column. The input's table is the feature matrix itself at float64 and
	// its rounded copy at float32.
	Tables []tensor.Typed
	// Block reports that the first layer runs on a row block (the first
	// entry of Model.Reach): a query binds it to the rows it answers of the
	// whole adjacency, A[S, :] under global column ids, and its plan reads
	// every table in place along the columns (fuse.Graph.FromTables).
	// Otherwise the prefix is the frontier {H} and the layer runs its
	// ordinary plan on a square subgraph over its vertices' feature rows.
	Block bool
	// Gathered lists, by index into Frontier, the tables a query gathers
	// rows of: on a block, those of the nodes the layer reads along its
	// rows (fuse.Graph.ReadsRows — GAT's u); otherwise the one table, {H}.
	Gathered []int

	in int // the feature width
}

// EvalPrefix evaluates the first layer's vertex-local prefix over the feature
// matrix h — one inference plan, at the layer's dtype, from the layer's own
// DAG — when that layer runs on a row block. Any other model has the
// frontier {H}: the features, rounded once to float32 for a float32 first
// layer.
func (m *Model) EvalPrefix(h *tensor.Dense) (*Prefix, error) {
	pre := &Prefix{in: h.Cols, Frontier: []string{"H"}, Tables: []tensor.Typed{{F64: h}}, Gathered: []int{0}}
	reach, err := m.Reach(h.Cols)
	if err != nil {
		return nil, err
	}
	var dl DAGLayer
	if len(m.Layers) > 0 {
		dl, _ = m.Layers[0].(DAGLayer)
	}
	if dl == nil {
		return pre, nil
	}
	core := dl.core()
	if core.Grid != nil || core.A.Cols != h.Rows {
		return nil, fmt.Errorf("gnn: a prefix is evaluated over the features of a single-node layer's %d vertices, got %d rows", core.A.Cols, h.Rows)
	}
	if !reach[0].Block {
		if core.DType == tensor.F32 {
			h32 := &tensor.Mat[float32]{Rows: h.Rows, Cols: h.Cols, Data: make([]float32, len(h.Data))}
			tensor.Cast(h32.Data, h.Data)
			pre.Tables[0] = tensor.Typed{F32: h32}
		}
		return pre, nil
	}
	g := fuse.NewGraph(dl.Name(), core.A)
	dl.DAG(g, g.InputDense("H", core.A.Cols, h.Cols))
	frontier, tables, err := g.EvalPrefix(h, core.DType)
	if err != nil {
		return nil, fmt.Errorf("gnn: %w", err)
	}
	pre.Block, pre.Frontier, pre.Tables, pre.Gathered = true, pre.Frontier[:0], tables, nil
	for i, n := range frontier {
		pre.Frontier = append(pre.Frontier, n.ID)
		if g.ReadsRows(n) {
			pre.Gathered = append(pre.Gathered, i)
		}
	}
	return pre, nil
}

// ForwardFrom is Forward(·, false) on a model — typically a rebound view of
// the one pre was evaluated for (RebindAdjacency, then Rebind to a query's
// blocks) — whose first layer starts
// from pre's tables instead of the features: rows[j] holds rows of table
// pre.Gathered[j]. On a block (pre.Block) the layer's adjacency is A[S, :]
// under global column ids, the layer reads the tables in place, and rows
// holds their rows for S, in order. Otherwise rows[0] holds the feature rows
// of the vertices the layer's adjacency columns name, in that order, and
// this is Forward itself on them. The result is owned as Forward's is.
func (m *Model) ForwardFrom(pre *Prefix, rows []tensor.Typed) *tensor.Dense {
	var x handoff
	first := 0
	if !pre.Block {
		x = handoff{m: rows[0]}
		m.begin(false, x.m, nil)
	} else {
		m.begin(false, pre.Tables[0], pre)
		site, t0 := m.layerSites()[0], obs.Now()
		x = m.Layers[0].(DAGLayer).core().forwardFrom(pre, rows)
		site.Forward(t0)
		first = 1
	}
	for i := first; i < len(m.Layers); i++ {
		x = m.forwardLayer(i, x, false)
	}
	return x.dense(false)
}
