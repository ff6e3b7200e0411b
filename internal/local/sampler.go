package local

import (
	"math/rand"

	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// Batch is a mini-batch of seed vertices with the induced subgraph of their
// L-hop neighborhood — the DistDGL-style workload unit the paper compares
// its full-batch execution against ("the largest possible mini-batch size —
// 16k vertices").
type Batch struct {
	Vertices []int32 // global ids of subgraph vertices; seeds come first
	NumSeeds int
	Sub      *Graph
}

// NeighborhoodExpand returns the batch induced by expanding seeds by `hops`
// full neighborhoods (no fan-out sampling; full-neighborhood expansion
// maximizes fidelity to full-batch semantics on the seed vertices).
func NeighborhoodExpand(g *Graph, seeds []int32, hops int) *Batch {
	localID := make(map[int32]int32, len(seeds)*4)
	var vertices []int32
	add := func(v int32) {
		if _, ok := localID[v]; !ok {
			localID[v] = int32(len(vertices))
			vertices = append(vertices, v)
		}
	}
	for _, s := range seeds {
		add(s)
	}
	frontierStart := 0
	for hop := 0; hop < hops; hop++ {
		frontierEnd := len(vertices)
		for idx := frontierStart; idx < frontierEnd; idx++ {
			v := vertices[idx]
			for p := g.OutPtr[v]; p < g.OutPtr[v+1]; p++ {
				add(g.OutCol[p])
			}
		}
		frontierStart = frontierEnd
	}
	// Induced subgraph over the collected vertex set.
	coo := sparse.NewCOO(len(vertices), len(vertices), len(vertices)*4)
	for li, v := range vertices {
		for p := g.OutPtr[v]; p < g.OutPtr[v+1]; p++ {
			if lj, ok := localID[g.OutCol[p]]; ok {
				coo.AppendFrom(int32(li), lj, g.OutVal, p)
			}
		}
	}
	return &Batch{
		Vertices: vertices,
		NumSeeds: len(seeds),
		Sub:      FromCSR(sparse.FromCOO(coo)),
	}
}

// GatherRows extracts the feature rows of the batch vertices.
func GatherRows(h *tensor.Dense, vertices []int32) *tensor.Dense {
	out := tensor.NewDense(len(vertices), h.Cols)
	for li, v := range vertices {
		copy(out.Row(li), h.Row(int(v)))
	}
	return out
}

// SeedMask returns a mask selecting only the seed vertices of a batch —
// mini-batch losses are evaluated on seeds only.
func (b *Batch) SeedMask() []bool {
	m := make([]bool, len(b.Vertices))
	for i := 0; i < b.NumSeeds; i++ {
		m[i] = true
	}
	return m
}

// Sampler iterates over random seed batches without replacement per epoch.
type Sampler struct {
	G         *Graph
	BatchSize int
	Hops      int
	rng       *rand.Rand
	perm      []int32
	next      int
}

// NewSampler creates a sampler with a deterministic permutation stream.
func NewSampler(g *Graph, batchSize, hops int, seed int64) *Sampler {
	s := &Sampler{G: g, BatchSize: batchSize, Hops: hops, rng: rand.New(rand.NewSource(seed))}
	s.reshuffle()
	return s
}

func (s *Sampler) reshuffle() {
	if s.perm == nil {
		s.perm = make([]int32, s.G.N)
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
	}
	s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	s.next = 0
}

// Next returns the next seed batch, reshuffling at epoch boundaries.
func (s *Sampler) Next() *Batch {
	if s.next+s.BatchSize > s.G.N {
		s.reshuffle()
	}
	end := s.next + s.BatchSize
	if end > s.G.N {
		end = s.G.N
	}
	seeds := s.perm[s.next:end]
	s.next = end
	return NeighborhoodExpand(s.G, seeds, s.Hops)
}
