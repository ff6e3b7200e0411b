package sparse

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"agnn/internal/par"
	"agnn/internal/tensor"
)

// CSR is a compressed-sparse-row matrix. By convention throughout this
// repository, CSR pattern slices (RowPtr, Col) are immutable after
// construction and may be shared among matrices with the same sparsity
// structure (adjacency matrix, attention scores, softmax output, gradients
// of all of these); only Val differs. This is the concrete realization of
// the paper's observation that "the output almost always has the same
// sparsity pattern as the adjacency matrix".
//
// Val == nil makes the matrix a pattern: every stored value is 1 and none is
// held, which is what the adjacency of an unweighted graph — the paper's mask
// A — is. Every method and kernel of this package reads a pattern as its
// ones-valued twin, to the bit (ValueAt); the builders keep a pattern one.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64   // len Rows+1
	Col        []int32   // len NNZ
	Val        []float64 // len NNZ, or nil: a pattern

	transposed     *Transposed // TransposedPattern's memo
	transposedOnce sync.Once
	index          Index // Index's memo
	indexOnce      sync.Once
}

// NNZ returns the number of stored entries.
func (s *CSR) NNZ() int { return len(s.Col) }

// ValueAt returns the value of entry p: Val[p], or 1 in a pattern.
func (s *CSR) ValueAt(p int64) float64 { return ValueAt(s.Val, p) }

// ValueAt returns vals[p], or 1 where vals is nil: entry p's value in a
// matrix holding vals, a pattern's one.
func ValueAt(vals []float64, p int64) float64 {
	if vals == nil {
		return 1
	}
	return vals[p]
}

// ValuesLike returns n zeroed values for a matrix built from the entries of
// one holding vals, or nil when vals is nil: whatever is built from a
// pattern's entries is a pattern.
func ValuesLike(vals []float64, n int) []float64 {
	if vals == nil {
		return nil
	}
	return make([]float64, n)
}

// AppendValues appends vals[b:e] to dst, or nothing for a pattern (vals
// nil), beside the entries a builder copies from it.
func AppendValues(dst, vals []float64, b, e int64) []float64 {
	if vals == nil {
		return dst
	}
	return append(dst, vals[b:e]...)
}

// PatternIfUnit drops s's values when every one of them is exactly 1 and
// returns s, which must not be shared yet: a unit-valued result (Â's units,
// a file written from a pattern) is a pattern.
func PatternIfUnit(s *CSR) *CSR {
	if !slices.ContainsFunc(s.Val, func(v float64) bool { return v != 1 }) {
		s.Val = nil
	}
	return s
}

// RowValues returns the reader of the values of entries [b, e) of a matrix
// on pat's pattern held in vals: vals[b:e], or, for a pattern (vals nil), as
// many ones from a shared row of them — so one kernel that takes a value
// slice runs both.
func RowValues[T tensor.Elem](pat *CSR, vals []T) func(b, e int64) []T {
	if vals != nil {
		return func(b, e int64) []T { return vals[b:e] }
	}
	ones := onesRow[T](pat.MaxRowNNZ())
	return func(b, e int64) []T { return ones[:e-b] }
}

// ones holds, per width, the longest row of ones RowValues has handed out.
// A row is never written once filled; a longer request replaces it.
var ones = struct {
	sync.Mutex
	rows map[any]any // T(0) → []T
}{rows: map[any]any{}}

// onesRow returns n ones at width T.
func onesRow[T tensor.Elem](n int) []T {
	ones.Lock()
	defer ones.Unlock()
	row, _ := ones.rows[T(0)].([]T)
	if len(row) < n {
		row = make([]T, n)
		for q := range row {
			row[q] = 1
		}
		ones.rows[T(0)] = row
	}
	return row[:n]
}

// FromCOO builds a CSR from a COO, sorting entries and summing duplicates.
// A pattern COO (Val nil) yields a pattern, duplicates collapsed, and never
// holds a value. It is O(nnz), and holds nothing beside the result but a
// count per row and a RowSorter's scratch per worker:
//   - one pass validates the entries and counts them per row;
//   - one pass scatters them, in input order, straight into what becomes Col
//     (and Val);
//   - the rows are split over the workers by their entries, and each worker
//     orders and deduplicates its rows in place with the row kernel;
//   - one pass closes the gaps the duplicates left.
//
// The row kernel is stable, so the duplicates of a weighted COO are summed in
// input order. The COO is left as it was.
func FromCOO(c *COO) *CSR {
	n := c.Len()
	if n > math.MaxInt32 { // past what Transposed's 32-bit entry positions address
		panic(fmt.Sprintf("sparse: %d entries, more than 2³¹−1", n))
	}
	out := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int64, c.Rows+1), Col: make([]int32, n), Val: ValuesLike(c.Val, n)}
	// next[i] counts row i's entries, then is where its next entry goes,
	// then its length once its duplicates are gone.
	next := make([]int32, c.Rows)
	c.countRows(next)
	for i, k := range next {
		out.RowPtr[i+1] = out.RowPtr[i] + int64(k)
		next[i] = int32(out.RowPtr[i])
	}
	for p, i := range c.Row {
		out.Col[next[i]] = c.Col[p]
		if c.Val != nil {
			out.Val[next[i]] = c.Val[p]
		}
		next[i]++
	}
	sorters := make([]RowSorter, par.Workers())
	out.RangeRows(func(w, lo, hi int) {
		s := &sorters[w]
		for i := lo; i < hi; i++ {
			start, end := out.RowPtr[i], out.RowPtr[i+1]
			var vals []float64
			if out.Val != nil {
				vals = out.Val[start:end]
			}
			next[i] = int32(s.SortRow(out.Col[start:end], vals, c.Cols))
		}
	})
	// Close the gaps the duplicates left, row by row.
	w := int64(0)
	for i := 0; i < c.Rows; i++ {
		start, m := out.RowPtr[i], int64(next[i])
		copy(out.Col[w:w+m], out.Col[start:start+m])
		if c.Val != nil {
			copy(out.Val[w:w+m], out.Val[start:start+m])
		}
		out.RowPtr[i] = w
		w += m
	}
	out.RowPtr[c.Rows] = w
	out.Col = out.Col[:w:w]
	if c.Val != nil {
		out.Val = out.Val[:w:w]
	}
	return out
}

// Identity returns the n×n identity matrix, a pattern.
func Identity(n int) *CSR {
	s := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1), Col: make([]int32, n)}
	for i := 0; i < n; i++ {
		s.RowPtr[i+1] = int64(i + 1)
		s.Col[i] = int32(i)
	}
	return s
}

// Clone returns a deep copy (pattern included).
func (s *CSR) Clone() *CSR {
	out := &CSR{Rows: s.Rows, Cols: s.Cols,
		RowPtr: append([]int64(nil), s.RowPtr...),
		Col:    append([]int32(nil), s.Col...),
		Val:    slices.Clone(s.Val)}
	return out
}

// WithValues returns a matrix sharing the receiver's pattern with the given
// values. len(vals) must equal NNZ. The pattern slices are shared, honoring
// the package's immutable-pattern convention.
func (s *CSR) WithValues(vals []float64) *CSR {
	if len(vals) != s.NNZ() {
		panic(fmt.Sprintf("sparse: WithValues length %d != nnz %d", len(vals), s.NNZ()))
	}
	return &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, Col: s.Col, Val: vals}
}

// SamePattern reports whether two matrices share an identical sparsity
// structure. It is O(1) when the slices are literally shared and O(nnz)
// otherwise.
func (s *CSR) SamePattern(b *CSR) bool {
	if s.Rows != b.Rows || s.Cols != b.Cols || s.NNZ() != b.NNZ() {
		return false
	}
	if len(s.RowPtr) > 0 && len(b.RowPtr) > 0 && &s.RowPtr[0] == &b.RowPtr[0] &&
		(len(s.Col) == 0 || &s.Col[0] == &b.Col[0]) {
		return true
	}
	for i := range s.RowPtr {
		if s.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range s.Col {
		if s.Col[i] != b.Col[i] {
			return false
		}
	}
	return true
}

// Transpose returns Sᵀ in CSR form (counting-sort construction, O(nnz)).
func (s *CSR) Transpose() *CSR { return s.transpose(nil) }

// transpose builds Sᵀ with its values (none for a pattern) or, src non-nil,
// with the position in S of each of its entries instead.
func (s *CSR) transpose(src []uint32) *CSR {
	out := &CSR{Rows: s.Cols, Cols: s.Rows,
		RowPtr: make([]int64, s.Cols+1),
		Col:    make([]int32, s.NNZ())}
	if src == nil {
		out.Val = ValuesLike(s.Val, s.NNZ())
	}
	for _, j := range s.Col {
		out.RowPtr[j+1]++
	}
	for i := 0; i < s.Cols; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	next := append([]int64(nil), out.RowPtr[:s.Cols]...)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			j := s.Col[p]
			q := next[j]
			next[j]++
			out.Col[q] = int32(i)
			if src != nil {
				src[q] = uint32(p)
			} else if out.Val != nil {
				out.Val[q] = s.Val[p]
			}
		}
	}
	return out
}

// Transposed is the pattern of Sᵀ together with where each of its entries
// sits in S, which is all it takes to sweep any matrix on S's pattern by
// columns: entry q of Sᵀ's row j carries value vals[Src[q]]. The positions
// are 32-bit: a COO holds fewer than 2³¹ entries (COO.validate).
type Transposed struct {
	Pat *CSR     // Sᵀ's pattern — Rows, Cols, RowPtr, Col; Val is nil
	Src []uint32 // entry q of Sᵀ is entry Src[q] of S
}

// TransposedPattern returns the transposed pattern of S, computed on first
// use and shared by every later caller (read-only): the compiled training
// plans of all layers over one adjacency sweep the same copy. The pattern
// (RowPtr, Col) must not change afterwards; Val may.
//
// A symmetric pattern is its own transpose: Pat is then S itself, or for a
// valued S a header over S's RowPtr and Col without values, and only Src is
// new — an involution, entry (i, j) of S at the position of (j, i).
func (s *CSR) TransposedPattern() *Transposed {
	s.transposedOnce.Do(func() {
		src := make([]uint32, s.NNZ())
		switch {
		case !s.scatterSymmetric(src):
			s.transposed = &Transposed{Pat: s.transpose(src), Src: src}
		case s.Val == nil:
			s.transposed = &Transposed{Pat: s, Src: src}
		default:
			s.transposed = &Transposed{Pat: &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, Col: s.Col}, Src: src}
		}
	})
	return s.transposed
}

// scatterSymmetric reports whether S's pattern is its transpose's, in the
// one scatter pass that builds Sᵀ's Src as though Sᵀ's rows were S's: entry
// (i, j) of S, rows taken in order, goes to the next free place of row j of
// S, which must hold column i. Every entry matching makes that map a
// bijection onto S's entries (no row overflows, so each row is filled
// exactly) under which each (i, j) has its (j, i): the pattern is symmetric,
// and src (nil: not written) is Sᵀ's Src. It stops at the first mismatch,
// src then partly written. Its one allocation is a cursor per row.
func (s *CSR) scatterSymmetric(src []uint32) bool {
	if s.Rows != s.Cols {
		return false
	}
	next := append([]int64(nil), s.RowPtr[:s.Rows]...)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			j := s.Col[p]
			q := next[j]
			if q == s.RowPtr[j+1] || s.Col[q] != int32(i) {
				return false
			}
			next[j]++
			if src != nil {
				src[q] = uint32(p)
			}
		}
	}
	return true
}

// Index returns Col as the checked index the row primitives gather through
// (NewIndex), scanned on first use and shared by every later caller: the
// sweeps over this matrix slice their rows out of it. Like TransposedPattern
// it holds the matrix to the convention that Col does not change.
func (s *CSR) Index() Index {
	s.indexOnce.Do(func() { s.index = NewIndex(s.Col) })
	return s.index
}

// IsSymmetricPattern reports whether the sparsity pattern equals that of the
// transpose (the usual case for the undirected graphs that dominate GNN
// workloads; cf. Section 5.2): TransposedPattern's one-pass check, which
// builds no transpose.
func (s *CSR) IsSymmetricPattern() bool { return s.scatterSymmetric(nil) }

// Apply returns a same-pattern matrix with f applied to every value.
func (s *CSR) Apply(f func(float64) float64) *CSR {
	vals := make([]float64, s.NNZ())
	par.Range(s.NNZ(), func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			vals[p] = f(s.ValueAt(int64(p)))
		}
	})
	return s.WithValues(vals)
}

// Scale returns alpha·S.
func (s *CSR) Scale(alpha float64) *CSR {
	return s.Apply(func(v float64) float64 { return alpha * v })
}

// AddSamePattern returns S + B for two matrices sharing a pattern.
func (s *CSR) AddSamePattern(b *CSR) *CSR {
	if !s.SamePattern(b) {
		panic("sparse: AddSamePattern on different patterns")
	}
	vals := make([]float64, s.NNZ())
	par.Range(s.NNZ(), func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			vals[p] = s.ValueAt(int64(p)) + b.ValueAt(int64(p))
		}
	})
	return s.WithValues(vals)
}

// Add returns S + B with a merged (union) pattern. This implements the X₊ =
// X + Xᵀ building block of Table 2 in the general case; when the patterns
// coincide the cheaper AddSamePattern path is taken automatically.
func (s *CSR) Add(b *CSR) *CSR {
	if s.Rows != b.Rows || s.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %d×%d + %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	if s.SamePattern(b) {
		return s.AddSamePattern(b)
	}
	out := &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int64, s.Rows+1)}
	// Two passes: count, then fill.
	for i := 0; i < s.Rows; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + int64(mergedRowLen(s, b, i))
	}
	out.Col = make([]int32, out.RowPtr[s.Rows])
	out.Val = make([]float64, out.RowPtr[s.Rows])
	out.RangeRows(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			q := out.RowPtr[i]
			pa, ea := s.RowPtr[i], s.RowPtr[i+1]
			pb, eb := b.RowPtr[i], b.RowPtr[i+1]
			for pa < ea || pb < eb {
				switch {
				case pb >= eb || (pa < ea && s.Col[pa] < b.Col[pb]):
					out.Col[q], out.Val[q] = s.Col[pa], s.ValueAt(pa)
					pa++
				case pa >= ea || b.Col[pb] < s.Col[pa]:
					out.Col[q], out.Val[q] = b.Col[pb], b.ValueAt(pb)
					pb++
				default:
					out.Col[q], out.Val[q] = s.Col[pa], s.ValueAt(pa)+b.ValueAt(pb)
					pa++
					pb++
				}
				q++
			}
		}
	})
	return out
}

func mergedRowLen(a, b *CSR, i int) int {
	pa, ea := a.RowPtr[i], a.RowPtr[i+1]
	pb, eb := b.RowPtr[i], b.RowPtr[i+1]
	n := 0
	for pa < ea || pb < eb {
		switch {
		case pb >= eb || (pa < ea && a.Col[pa] < b.Col[pb]):
			pa++
		case pa >= ea || b.Col[pb] < a.Col[pa]:
			pb++
		default:
			pa++
			pb++
		}
		n++
	}
	return n
}

// AddTranspose returns S + Sᵀ (the X₊ building block).
func (s *CSR) AddTranspose() *CSR { return s.Add(s.Transpose()) }

// RowSums returns the vector of row sums (sum(X) = X·1 on the pattern).
func (s *CSR) RowSums() []float64 {
	out := make([]float64, s.Rows)
	s.RangeRows(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				acc += s.ValueAt(p)
			}
			out[i] = acc
		}
	})
	return out
}

// ScaleRows returns diag(r)·S (row i scaled by r[i]).
func (s *CSR) ScaleRows(r []float64) *CSR {
	if len(r) != s.Rows {
		panic("sparse: ScaleRows length mismatch")
	}
	vals := make([]float64, s.NNZ())
	s.RangeRows(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ri := r[i]
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				vals[p] = s.ValueAt(p) * ri
			}
		}
	})
	return s.WithValues(vals)
}

// ScaleRowsCols returns diag(r)·S·diag(c): entry (i,j) scaled by r[i]·c[j].
// With r = c = 1⊘n this is the Hadamard division by the virtual outer
// product n·nᵀ used by AGNN's cosine normalization — the n×n matrix is
// never formed.
func (s *CSR) ScaleRowsCols(r, c []float64) *CSR {
	if len(r) != s.Rows || len(c) != s.Cols {
		panic("sparse: ScaleRowsCols length mismatch")
	}
	vals := make([]float64, s.NNZ())
	s.RangeRows(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ri := r[i]
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				vals[p] = s.ValueAt(p) * ri * c[s.Col[p]]
			}
		}
	})
	return s.WithValues(vals)
}

// ToDense materializes the matrix; for tests and tiny examples only.
func (s *CSR) ToDense() *tensor.Dense {
	out := tensor.NewDense(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			out.Set(i, int(s.Col[p]), out.At(i, int(s.Col[p]))+s.ValueAt(p))
		}
	}
	return out
}

// RowNNZ returns the number of stored entries in row i.
func (s *CSR) RowNNZ(i int) int { return int(s.RowPtr[i+1] - s.RowPtr[i]) }

// RangeRows runs fn over the rows [0, Rows) split over the workers by their
// entries (par.RangeWeighted on the row lengths): a row sweep's work goes with
// its entries, and a skewed pattern's first rows can hold most of them.
func (s *CSR) RangeRows(fn func(worker, lo, hi int)) {
	par.RangeWeighted(s.Rows, func(i int) int64 { return s.RowPtr[i+1] - s.RowPtr[i] }, fn)
}

// MaxRowNNZ returns the maximum row degree d of the pattern.
func (s *CSR) MaxRowNNZ() int {
	d := 0
	for i := 0; i < s.Rows; i++ {
		if r := s.RowNNZ(i); r > d {
			d = r
		}
	}
	return d
}
