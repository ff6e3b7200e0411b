package serving

import (
	"context"
	"math/rand"
	"testing"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// egoBenchModel is a 2-layer GAT over a 32k-vertex graph whose 2-hop egos
// hold ≈ 700 vertices, the size of a serving query, with its processed
// adjacency and k = 32 features.
func egoBenchModel(b *testing.B) (*gnn.Model, *sparse.CSR, *tensor.Dense) {
	const k = 32
	a := graph.ErdosRenyi(1<<15, 13<<15, 1)
	m, err := gnn.New(gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: 8,
		SelfLoops: true, Seed: 2}, a)
	if err != nil {
		b.Fatal(err)
	}
	adj, err := m.Adjacency()
	if err != nil {
		b.Fatal(err)
	}
	return m, adj, tensor.RandN(a.Rows, k, 1, rand.New(rand.NewSource(3)))
}

// BenchmarkNewEngine times setting up an engine over egoBenchModel: the
// default radius read off the DAGs and the first layer's vertex-local prefix
// (H·W, u, v) evaluated over every vertex once.
func BenchmarkNewEngine(b *testing.B) {
	m, adj, feats := egoBenchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(Config{Model: m, Adj: adj, Features: feats})
		if err != nil {
			b.Fatal(err)
		}
		e.Stop()
	}
}

// BenchmarkEgoQuery times one single-vertex query end to end — expansion of
// the vertices within one hop (the rows the first layer produces), block
// extraction (the first A[R, :] under global column ids), the gather of
// their rows of u, the rebind of the runner's view, a bind of each layer's
// plan and the forward that reads H·W and v in place — over egoBenchModel.
// "cold" asks a different vertex every iteration, so its blocks differ in
// shape from the last query's; "warm" asks one vertex again and again, so
// every bind is to blocks of the shape the plans already have.
func BenchmarkEgoQuery(b *testing.B) {
	m, adj, feats := egoBenchModel(b)
	e, err := NewEngine(Config{Model: m, Adj: adj, Features: feats})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Stop()
	ctx := context.Background()
	query := func(v int) {
		if _, err := e.Ego(ctx, v, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		order := rand.New(rand.NewSource(4)).Perm(adj.Rows)
		for i := 0; i < b.N; i++ {
			query(order[i%len(order)])
		}
	})
	b.Run("warm", func(b *testing.B) {
		query(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(0)
		}
	})
}
