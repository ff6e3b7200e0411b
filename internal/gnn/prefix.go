package gnn

import (
	"fmt"
	"strings"

	"agnn/internal/fuse"
	"agnn/internal/obs"
	"agnn/internal/tensor"
)

// Prefix is the vertex-local prefix of a model's first layer evaluated over a
// whole feature matrix: the part of the layer's DAG whose row i depends only
// on row i of the features and on the parameters (fuse.Graph.Frontier — GAT's
// H·W, u and v). A model whose parameters stay put can evaluate it once and
// answer any subgraph query by gathering rows of its tables (ForwardFrom)
// instead of recomputing them: every prefix op computes a row the same way
// whatever the height, so the answer keeps its bits.
type Prefix struct {
	// Frontier names the prefix nodes the rest of the layer reads, in DAG
	// order: just the input "H" when nothing row-local follows it.
	Frontier []string
	// Tables holds, per frontier node, its value for every vertex at the
	// layer's element width: row v is vertex v's, a vector node's one
	// column. The input's table is the feature matrix itself at float64.
	Tables []tensor.Typed

	in   int    // the feature width
	from string // the frontier in the plan-cache signature; "" when it is the input
}

// EvalPrefix evaluates the first layer's vertex-local prefix over the feature
// matrix h — one inference plan, at the layer's dtype, from the layer's own
// DAG. A model that does not start with a DAG layer has the frontier {H}.
func (m *Model) EvalPrefix(h *tensor.Dense) (*Prefix, error) {
	pre := &Prefix{in: h.Cols, Frontier: []string{"H"}, Tables: []tensor.Typed{{F64: h}}}
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
	g := fuse.NewGraph(dl.Name(), core.A)
	dl.DAG(g, g.InputDense("H", core.A.Cols, h.Cols))
	frontier, tables, err := g.EvalPrefix(h, core.DType)
	if err != nil {
		return nil, fmt.Errorf("gnn: %w", err)
	}
	pre.Frontier, pre.Tables = pre.Frontier[:0], tables
	for _, n := range frontier {
		pre.Frontier = append(pre.Frontier, n.ID)
	}
	if len(frontier) > 1 || frontier[0].Op != "input" {
		pre.from = strings.Join(pre.Frontier, ",")
	}
	return pre, nil
}

// ForwardFrom is Forward(·, false) on a model — typically a rebound view of
// the one pre was evaluated for (RebindBlocks) — whose first layer reads, in
// place of the features, rows[i]: the rows of pre.Tables[i] of the vertices
// the layer's adjacency columns name, in that order. From the frontier {H}
// that is Forward itself on rows[0]. The result is owned as Forward's is.
func (m *Model) ForwardFrom(pre *Prefix, rows []tensor.Typed) *tensor.Dense {
	x, first := handoff{m: rows[0]}, 0
	if pre.from != "" {
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
