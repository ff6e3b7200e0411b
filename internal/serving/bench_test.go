package serving

import (
	"context"
	"math/rand"
	"testing"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/tensor"
)

// BenchmarkEgoQuery times one single-vertex query end to end — expansion,
// block extraction, rebind, plan lease and forward — with a 2-layer GAT over
// a 32k-vertex graph whose 2-hop egos hold ≈ 700 vertices, the size of a
// serving query. "cold" asks a different vertex every iteration, so its plans
// compile (or come back from another ego of the same structure); "warm"
// asks one vertex again and again, so every plan is a cache hit.
func BenchmarkEgoQuery(b *testing.B) {
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
	e, err := NewEngine(Config{Model: m, Adj: adj, Features: tensor.RandN(a.Rows, k, 1, rand.New(rand.NewSource(3)))})
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
		order := rand.New(rand.NewSource(4)).Perm(a.Rows)
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
