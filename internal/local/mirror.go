package local

import (
	"fmt"

	"agnn/internal/gnn"
	"agnn/internal/sparse"
)

// Mirror builds a local-formulation model semantically equivalent to a
// global-formulation model, cloning its weights. The two must produce
// identical forward outputs and gradients (DESIGN.md validation #1); the
// benchmarks compare their throughput and, distributed, their
// communication volume.
//
// Note: the global model's adjacency preprocessing (self loops, GCN
// normalization) already happened inside gnn.New, so the mirror reads the
// processed matrix back from the layers.
func Mirror(m *gnn.Model) (*gnn.Model, error) { return MirrorOn(m, nil) }

// MirrorOn is Mirror over graph g instead of the layers' own adjacency
// (nil: theirs) — how the distributed baseline puts the layers gnn builds
// from a Config, unbound, onto its halo-extended local graph.
func MirrorOn(m *gnn.Model, g *Graph) (*gnn.Model, error) {
	on := func(a *sparse.CSR) *Graph {
		if g != nil {
			return g
		}
		return FromCSR(a)
	}
	out := &gnn.Model{}
	for _, l := range m.Layers {
		switch gl := l.(type) {
		case *gnn.VALayer:
			out.Layers = append(out.Layers, NewVALayer(on(gl.A), gl.W.Value, gl.Act))
		case *gnn.AGNNLayer:
			out.Layers = append(out.Layers,
				NewAGNNLayer(on(gl.A), gl.W.Value, gl.Beta.Scalar(), gl.Act))
		case *gnn.GATLayer:
			out.Layers = append(out.Layers,
				NewGATLayer(on(gl.A), gl.W.Value, gl.A1.Value, gl.A2.Value, gl.Act, gl.NegSlope))
		case *gnn.GCNLayer:
			out.Layers = append(out.Layers, NewGCNLayer(on(gl.A), gl.W.Value, gl.Act))
		default:
			return nil, fmt.Errorf("local: cannot mirror layer type %T", l)
		}
	}
	return out, nil
}

// Rebind builds a new local model over a different graph (e.g. a mini-batch
// subgraph) sharing the parameter objects of src — gradients accumulate
// into the shared buffers, which is what mini-batch training needs.
func Rebind(src *gnn.Model, g *Graph) (*gnn.Model, error) {
	out := &gnn.Model{}
	for _, l := range src.Layers {
		switch ll := l.(type) {
		case *VALayer:
			out.Layers = append(out.Layers, &VALayer{G: g, W: ll.W, Act: ll.Act})
		case *AGNNLayer:
			out.Layers = append(out.Layers, &AGNNLayer{G: g, W: ll.W, Beta: ll.Beta, Act: ll.Act})
		case *GATLayer:
			out.Layers = append(out.Layers, &GATLayer{G: g, W: ll.W, A1: ll.A1, A2: ll.A2,
				Act: ll.Act, NegSlope: ll.NegSlope})
		case *GCNLayer:
			out.Layers = append(out.Layers, &GCNLayer{G: g, W: ll.W, Act: ll.Act})
		default:
			return nil, fmt.Errorf("local: cannot rebind layer type %T", l)
		}
	}
	return out, nil
}
