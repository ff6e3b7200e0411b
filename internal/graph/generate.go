// Package graph provides the graph substrate: synthetic generators matching
// the paper's datasets (Graph500-style Kronecker graphs with heavy-tail
// degree skew, Erdős–Rényi random-uniform graphs, and an MAKG-like preset),
// COO file I/O replacing the artifact's .npz loading, structural
// transformations, degree statistics, and the partitioners used by the
// distributed engines.
package graph

import (
	"fmt"
	"math/rand"

	"agnn/internal/sparse"
)

// Kronecker generates an undirected Graph500-style Kronecker graph with
// 2^scale vertices and approximately edgeFactor·2^scale undirected edges
// (before deduplication). It follows the Graph500 reference recipe the
// paper's artifact strips down: per-edge recursive quadrant sampling with
// initiator probabilities (A, B, C, D) = (0.57, 0.19, 0.19, 0.05),
// symmetrization, duplicate and self-loop removal, and a final pass that
// connects every isolated vertex so each vertex has at least one neighbor.
func Kronecker(scale int, edgeFactor float64, seed int64) *sparse.CSR {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: Kronecker scale %d out of range [1,30]", scale))
	}
	n := 1 << scale
	m := int(edgeFactor * float64(n))
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19 // d = 0.05

	coo := sparse.NewCOO(n, n, 2*m+n)
	for e := 0; e < m; e++ {
		var i, j int32
		for lvl := 0; lvl < scale; lvl++ {
			r := rng.Float64()
			switch {
			case r < a:
				// quadrant (0,0)
			case r < a+b:
				j |= 1 << lvl
			case r < a+b+c:
				i |= 1 << lvl
			default:
				i |= 1 << lvl
				j |= 1 << lvl
			}
		}
		if i == j {
			continue // drop self loops
		}
		coo.Append(i, j)
		coo.Append(j, i) // symmetrize
	}
	s := sparse.FromCOO(coo) // sorts + removes duplicates
	return connectIsolated(s, rng)
}

// ErdosRenyi generates an undirected Erdős–Rényi graph with n vertices and
// approximately m undirected edges sampled uniformly without replacement
// (the paper's "random uniform degree distribution" datasets). Self loops
// are excluded and every vertex ends up with at least one neighbor.
func ErdosRenyi(n, m int, seed int64) *sparse.CSR {
	if n < 2 {
		panic("graph: ErdosRenyi needs n >= 2")
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n, 2*m+n)
	if float64(m) > 0.25*float64(maxM) {
		// Dense regime: Bernoulli per pair with q = m/maxM.
		q := float64(m) / float64(maxM)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < q {
					coo.Append(int32(i), int32(j))
					coo.Append(int32(j), int32(i))
				}
			}
		}
	} else {
		// Sparse regime: rejection sampling of distinct pairs.
		seen := make(map[uint64]struct{}, m)
		for len(seen) < m {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			key := uint64(i)<<32 | uint64(j)
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			coo.Append(int32(i), int32(j))
			coo.Append(int32(j), int32(i))
		}
	}
	s := sparse.FromCOO(coo)
	return connectIsolated(s, rng)
}

// MAKGSim generates a scaled-down stand-in for the Microsoft Academic
// Knowledge Graph (111M vertices, 3.2B edges, average degree ≈ 29 when
// counted as directed non-zeros). The paper's MAKG experiments depend on
// its heavy-tail degree distribution and density; this preset reproduces
// both via a Kronecker graph with edge factor 14.5 (≈ 29 non-zeros per
// vertex after symmetrization).
func MAKGSim(scale int, seed int64) *sparse.CSR {
	return Kronecker(scale, 14.5, seed)
}

// PlantedPartition generates a graph with `classes` equally sized vertex
// communities: intra-community edges appear with probability pIn and
// inter-community edges with pOut. It returns the adjacency matrix and the
// ground-truth community label per vertex — the synthetic citation-network
// workload of examples/citation.
func PlantedPartition(n, classes int, pIn, pOut float64, seed int64) (*sparse.CSR, []int) {
	if classes < 1 || n < classes {
		panic("graph: PlantedPartition needs 1 <= classes <= n")
	}
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
	}
	coo := sparse.NewCOO(n, n, int(float64(n*n)*pIn/float64(classes))+n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if labels[i] == labels[j] {
				p = pIn
			}
			if rng.Float64() < p {
				coo.Append(int32(i), int32(j))
				coo.Append(int32(j), int32(i))
			}
		}
	}
	return connectIsolated(sparse.FromCOO(coo), rng), labels
}

// connectIsolated adds one undirected edge from each isolated vertex to a
// uniformly random other vertex, matching the artifact's post-processing.
func connectIsolated(s *sparse.CSR, rng *rand.Rand) *sparse.CSR {
	n := s.Rows
	var isolated []int32
	for i := 0; i < n; i++ {
		if s.RowNNZ(i) == 0 {
			isolated = append(isolated, int32(i))
		}
	}
	if len(isolated) == 0 {
		return s
	}
	coo := sparse.NewCOO(n, n, s.NNZ()+2*len(isolated))
	for i := 0; i < n; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			coo.Append(int32(i), s.Col[p])
		}
	}
	for _, i := range isolated {
		j := int32(rng.Intn(n - 1))
		if j >= i {
			j++
		}
		coo.Append(i, j)
		coo.Append(j, i)
	}
	return sparse.FromCOO(coo)
}
