package tensor

import (
	"math"
	"math/rand"

	"agnn/internal/par"
)

// This file holds the row-norm vector n of AGNN's cosine scores (Table 2),
// the vector update Axpy, and the seeded initializers every weight is drawn
// from. The other Table 2 blocks — rep, sum, rs and the ones vectors — are
// no kernels of their own: the plans of internal/fuse sample them on the
// pattern (ops "rep", "repT" and the softmax's row sums), and the dense
// evaluator of the fuse tests materializes them to check those plans.

// RowNorms returns the vector n with n_i = ‖X[i,:]‖₂ (AGNN's normalizer).
func RowNorms(m *Dense) []float64 {
	out := make([]float64, m.Rows)
	par.Range(m.Rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			s := 0.0
			for _, v := range row {
				s += v * v
			}
			out[i] = math.Sqrt(s)
		}
	})
	return out
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// RandN fills a new r×c matrix with i.i.d. N(0, std²) entries drawn from a
// deterministic source. Every weight initialization in the repository goes
// through this so experiments are reproducible for a fixed seed.
func RandN(r, c int, std float64, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// RandUniform fills a new r×c matrix with i.i.d. U[lo, hi) entries.
func RandUniform(r, c int, lo, hi float64, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return m
}

// GlorotInit returns the Xavier/Glorot initialization used for GNN weight
// matrices: U(-s, s) with s = sqrt(6/(fanIn+fanOut)).
func GlorotInit(fanIn, fanOut int, rng *rand.Rand) *Dense {
	s := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(fanIn, fanOut, -s, s, rng)
}
