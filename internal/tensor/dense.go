// Package tensor implements the dense-tensor substrate of the global GNN
// formulations: row-major float64 matrices, parallel matrix products, and
// the algebraic building blocks of Table 2 in the paper (replication rep,
// row summation sum, their composition rs, Hadamard products, and row
// norms). The paper's implementation delegates these to NumPy/CuPy; here
// they are written from scratch on goroutine-parallel blocked loops.
package tensor

import (
	"fmt"
	"math"
	"sync"

	"agnn/internal/par"
)

// Dense is a dense row-major matrix. A feature matrix H ∈ R^{n×k} stores the
// feature vector of vertex i contiguously in Data[i*Cols : (i+1)*Cols],
// matching the paper's convention of row feature vectors.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseFrom wraps data as an r×c matrix without copying.
// len(data) must equal r*c.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: data length %d != %d×%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns the (i, j) element.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) element.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0 in place and returns the receiver.
func (m *Dense) Zero() *Dense {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Fill sets all elements to v in place and returns the receiver.
func (m *Dense) Fill(v float64) *Dense {
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// CopyFrom copies src into the receiver; shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// T returns a newly allocated transpose.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	// Blocked transpose for cache friendliness.
	const bs = 64
	par.Range((m.Rows+bs-1)/bs, func(_, blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			i0, i1 := bi*bs, (bi+1)*bs
			if i1 > m.Rows {
				i1 = m.Rows
			}
			for j0 := 0; j0 < m.Cols; j0 += bs {
				j1 := j0 + bs
				if j1 > m.Cols {
					j1 = m.Cols
				}
				for i := i0; i < i1; i++ {
					row := m.Data[i*m.Cols:]
					for j := j0; j < j1; j++ {
						out.Data[j*m.Rows+i] = row[j]
					}
				}
			}
		}
	})
	return out
}

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	m.mustSameShape(b, "Add")
	out := m.Clone()
	out.AddInPlace(b)
	return out
}

// AddInPlace accumulates b into the receiver.
func (m *Dense) AddInPlace(b *Dense) *Dense {
	m.mustSameShape(b, "AddInPlace")
	inPlace(m.Data, b.Data, 0, func(md, bd []float64, _ float64) {
		for i := range md {
			md[i] += bd[i]
		}
	})
	return m
}

// Sub returns m - b.
func (m *Dense) Sub(b *Dense) *Dense {
	m.mustSameShape(b, "Sub")
	out := NewDense(m.Rows, m.Cols)
	par.Range(len(m.Data), func(_, lo, hi int) {
		od, md, bd := out.Data[lo:hi], m.Data[lo:hi], b.Data[lo:hi]
		for i := range od {
			od[i] = md[i] - bd[i]
		}
	})
	return out
}

// AxpyInPlace computes m += alpha*b.
func (m *Dense) AxpyInPlace(alpha float64, b *Dense) *Dense {
	m.mustSameShape(b, "AxpyInPlace")
	inPlace(m.Data, b.Data, alpha, func(md, bd []float64, alpha float64) {
		for i := range md {
			md[i] += alpha * bd[i]
		}
	})
	return m
}

// Scale returns alpha*m.
func (m *Dense) Scale(alpha float64) *Dense {
	out := NewDense(m.Rows, m.Cols)
	par.Range(len(m.Data), func(_, lo, hi int) {
		od, md := out.Data[lo:hi], m.Data[lo:hi]
		for i := range od {
			od[i] = alpha * md[i]
		}
	})
	return out
}

// ScaleInPlace computes m *= alpha.
func (m *Dense) ScaleInPlace(alpha float64) *Dense {
	inPlace(m.Data, nil, alpha, func(md, _ []float64, alpha float64) {
		for i := range md {
			md[i] *= alpha
		}
	})
	return m
}

// Hadamard returns the element-wise product m ⊙ b.
func (m *Dense) Hadamard(b *Dense) *Dense {
	m.mustSameShape(b, "Hadamard")
	out := NewDense(m.Rows, m.Cols)
	par.Range(len(m.Data), func(_, lo, hi int) {
		od, md, bd := out.Data[lo:hi], m.Data[lo:hi], b.Data[lo:hi]
		for i := range od {
			od[i] = md[i] * bd[i]
		}
	})
	return out
}

// inPlace runs kernel over matching chunks of dst and src (src may be nil)
// on the worker pool. A closure over the operands would escape to the pool
// and be allocated on every call; the operands travel instead in a pooled
// job whose chunk function is bound once, and kernel captures nothing, so
// the in-place operations — an optimizer step, a loss's scaling — allocate
// nothing once warm.
func inPlace(dst, src []float64, alpha float64, kernel func(dst, src []float64, alpha float64)) {
	j := inPlaceJobs.Get().(*inPlaceJob)
	j.dst, j.src, j.alpha, j.kernel = dst, src, alpha, kernel
	par.Range(len(dst), j.chunk)
	j.dst, j.src, j.kernel = nil, nil, nil
	inPlaceJobs.Put(j)
}

type inPlaceJob struct {
	dst, src []float64
	alpha    float64
	kernel   func(dst, src []float64, alpha float64)
	chunk    func(worker, lo, hi int)
}

var inPlaceJobs = sync.Pool{New: func() any {
	j := new(inPlaceJob)
	j.chunk = func(_, lo, hi int) {
		var src []float64
		if j.src != nil {
			src = j.src[lo:hi]
		}
		j.kernel(j.dst[lo:hi], src, j.alpha)
	}
	return j
}}

// Apply returns f applied element-wise.
func (m *Dense) Apply(f func(float64) float64) *Dense {
	out := NewDense(m.Rows, m.Cols)
	par.Range(len(m.Data), func(_, lo, hi int) {
		od, md := out.Data[lo:hi], m.Data[lo:hi]
		for i := range od {
			od[i] = f(md[i])
		}
	})
	return out
}

// MaxAbsDiff returns max |m - b| element-wise; useful in tests.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	m.mustSameShape(b, "MaxAbsDiff")
	d := 0.0
	for i := range m.Data {
		v := math.Abs(m.Data[i] - b.Data[i])
		if v > d {
			d = v
		}
	}
	return d
}

// MaxRelDiff returns max |m − ref| as a fraction of max |ref| — the measure
// for two evaluation orders of one formula, whose rounding differences scale
// with the values (a few ulp of 1e15 is more than 1). 0 when m equals ref;
// +Inf when they differ and ref is all zero.
func (m *Dense) MaxRelDiff(ref *Dense) float64 {
	d := m.MaxAbsDiff(ref)
	if d == 0 {
		return 0
	}
	top := 0.0
	for _, v := range ref.Data {
		top = math.Max(top, math.Abs(v))
	}
	return d / top
}

// ApproxEqual reports whether every element differs by at most tol.
func (m *Dense) ApproxEqual(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	return m.MaxAbsDiff(b) <= tol
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// SliceRows returns the sub-matrix of rows [lo, hi) sharing storage with m.
func (m *Dense) SliceRows(lo, hi int) *Dense {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of %d rows", lo, hi, m.Rows))
	}
	return &Dense{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Dense{%d×%d}", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Dense{%d×%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("  %v\n", m.Row(i))
	}
	return s + "}"
}

func (m *Dense) mustSameShape(b *Dense, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %d×%d vs %d×%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
