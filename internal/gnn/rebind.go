package gnn

import (
	"fmt"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
)

// RebindAdjacency builds a new model over a different adjacency matrix that
// *shares* the parameter objects of src. This is the global-formulation
// side of mini-batch training (the paper's "one can straightforwardly
// extend most of our routines to mini-batching"): extract the induced
// subgraph of an expanded seed batch (graph.InducedSubgraph), rebind the
// model to it, and train — gradients accumulate into the shared buffers.
// The matrix a must already carry the model's preprocessing (self loops /
// normalization), as it does when it is an induced subgraph of a processed
// layer adjacency. Every layer is a copy of its source — same parameters,
// options and dtype — holding no plans; the copies share their source's
// layer instruments, so a profile covers the model and its views together.
// It is a copy of src, then Rebind with a for every DAG layer: to visit many
// subgraphs, make one view and Rebind it to each.
func RebindAdjacency(src *Model, a *sparse.CSR) (*Model, error) {
	out := &Model{DType: src.DType}
	sites := src.layerSites()
	out.sites.Store(&sites)
	var blocks []*sparse.CSR
	for _, l := range src.Layers {
		switch ll := l.(type) {
		case DAGLayer:
			out.Layers = append(out.Layers, ll.rebound(a))
			blocks = append(blocks, a)
		case *DropoutLayer:
			out.Layers = append(out.Layers, ll)
		default:
			return nil, fmt.Errorf("gnn: cannot rebind layer type %T", l)
		}
	}
	return out, out.Rebind(blocks...)
}

// Adjacency returns the processed adjacency the model's first graph layer
// is bound to — the matrix with the construction-time preprocessing (self
// loops, GCN normalization) already applied. Induced subgraphs for
// mini-batching or serving must be taken from this matrix, not the raw
// input graph, so that rebinding preserves the layer semantics.
func (m *Model) Adjacency() (*sparse.CSR, error) {
	for _, l := range m.Layers {
		if dl, ok := l.(DAGLayer); ok && dl.core().A != nil {
			return dl.core().A, nil
		}
	}
	return nil, fmt.Errorf("gnn: model has no adjacency-bound layer")
}

// Reach is what one row of a DAG layer's output reads of the adjacency.
type Reach struct {
	// Radius is the largest number of aggregations on any path through the
	// layer's DAG (fuse.Graph.Radius): a K-hop SGC layer has K, a GAT layer
	// one. Summed over a model's layers it is the model's radius: the ego
	// network of that many hops gives a vertex the full graph's logits.
	Radius int
	// Block reports that the layer lowers onto a row block: bound to an
	// r×c block A[:r, :c], it reads c input rows and writes r, each output
	// row from its own adjacency row. Every built-in layer of radius 1
	// does; a layer of any other radius, or a custom fragment that combines
	// the aggregate with its input row for row, does not. Nor does the first
	// DAG layer of a model that starts with another layer: a query's first
	// block reads the prefix tables (Model.EvalPrefix), which only a leading
	// DAG layer has.
	Block bool
}

// Reach returns, per DAG layer in order, what the layer reads of the
// adjacency for features of width in (dropout layers read nothing and have
// no entry).
func (m *Model) Reach(in int) ([]Reach, error) {
	var out []Reach
	for i, l := range m.Layers {
		switch ll := l.(type) {
		case DAGLayer:
			a := ll.core().A
			g := fuse.NewGraph(ll.Name(), a)
			ll.DAG(g, g.InputDense("H", a.Cols, in))
			out = append(out, Reach{Radius: g.Radius(), Block: (i == 0 || len(out) > 0) && lowersOnBlock(ll, in)})
			in = g.OutputCols()
		case *DropoutLayer:
		default:
			return nil, fmt.Errorf("gnn: layer %d (%T) has no DAG to read its reach from", i, l)
		}
	}
	return out, nil
}

// lowersOnBlock builds l's DAG over an empty 1×2 block and reports whether
// it writes one row from one hop (Reach.Block). The fuse builder panics on a
// shape mismatch, which is how a DAG that needs a square pattern answers no.
func lowersOnBlock(l DAGLayer, in int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	g := fuse.NewGraph(l.Name(), &sparse.CSR{Rows: 1, Cols: 2, RowPtr: []int64{0, 0}})
	l.DAG(g, g.InputDense("H", 2, in))
	return g.OutputRows() == 1 && g.Radius() == 1
}

// Rebind swaps the model's adjacencies in place, one block per DAG layer in
// layer order: blocks[i] binds the i-th DAG layer, dropout takes none. Every
// layer keeps its parameters, options and compiled plans; the model's next
// Forward binds each plan to its new block (fuse.Plan.Bind) instead of
// compiling, and lays the step out again once all are bound. A layer bound to an r×c block reads c input rows and writes r,
// so a block must have as many columns as the layer before it produces rows
// — the message-flow blocks of an ego query (serving) shrink layer by layer;
// a mini-batch passes its induced subgraph for every layer.
func (m *Model) Rebind(blocks ...*sparse.CSR) error {
	dags := 0
	for _, l := range m.Layers {
		switch l.(type) {
		case DAGLayer:
			dags++
		case *DropoutLayer:
		default:
			return fmt.Errorf("gnn: cannot rebind layer type %T", l)
		}
	}
	if len(blocks) != dags {
		return fmt.Errorf("gnn: %d blocks for the model's %d DAG layers", len(blocks), dags)
	}
	for _, l := range m.Layers {
		if dl, ok := l.(DAGLayer); ok {
			dl.core().A, blocks = blocks[0], blocks[1:]
		}
	}
	return nil
}
