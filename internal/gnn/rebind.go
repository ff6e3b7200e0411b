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
// Every layer is a copy of its source — same parameters, options and dtype —
// bound to a and holding no plan leases; the copies share their source's
// layer instruments, so a profile covers the model and its mini-batch or
// ego-network views together. The matrix a must already carry
// the model's preprocessing (self loops / normalization), as it does when
// it is an induced subgraph of a processed layer adjacency.
func RebindAdjacency(src *Model, a *sparse.CSR) (*Model, error) {
	out := &Model{DType: src.DType}
	sites := src.layerSites()
	out.sites.Store(&sites)
	for _, l := range src.Layers {
		switch ll := l.(type) {
		case DAGLayer:
			out.Layers = append(out.Layers, ll.rebound(a))
		case *DropoutLayer:
			out.Layers = append(out.Layers, ll)
		default:
			return nil, fmt.Errorf("gnn: cannot rebind layer type %T", l)
		}
	}
	return out, nil
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

// Radius returns how many hops of the adjacency one row of the model's
// output reads, for features of width in: per layer, the largest number of
// aggregations on any path through its DAG (fuse.Graph.Radius), summed over
// the layers. The induced subgraph of a vertex's ego network of this radius
// gives the vertex the logits the full graph does — a K-hop SGC layer counts
// K, a GAT layer one, dropout none.
func (m *Model) Radius(in int) (int, error) {
	hops := 0
	for i, l := range m.Layers {
		switch ll := l.(type) {
		case DAGLayer:
			a := ll.core().A
			g := fuse.NewGraph(ll.Name(), a)
			ll.DAG(g, g.InputDense("H", a.Rows, in))
			hops += g.Radius()
			in = g.OutputCols()
		case *DropoutLayer:
		default:
			return 0, fmt.Errorf("gnn: layer %d (%T) has no DAG to read its radius from", i, l)
		}
	}
	return hops, nil
}

// Rebind swaps the model's adjacency in place: every layer keeps its
// parameters, options and plan-cache signature, and only A changes.
// Combined with the process-wide plan cache this makes subgraph rotation
// recompile-free: on its next Forward each layer releases its current plan
// lease back to the cache and leases the plan for the new adjacency — a
// cache hit whenever that structure has been executed before. Prefer this
// over RebindAdjacency in loops; the latter allocates fresh layer structs
// whose leases die with them.
func (m *Model) Rebind(a *sparse.CSR) error {
	for _, l := range m.Layers {
		switch ll := l.(type) {
		case DAGLayer:
			ll.core().A = a
		case *DropoutLayer:
		default:
			return fmt.Errorf("gnn: cannot rebind layer type %T", l)
		}
	}
	return nil
}
