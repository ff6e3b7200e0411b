package fuse

import (
	"agnn/internal/par"
	"agnn/internal/sparse"
)

// The fused SDDMM + edge-softmax + SpMM attention op. The unfused op
// sequence writes nnz normalized scores in one sweep and re-reads them in
// the next; the fused op samples the composed virtual scores, normalizes
// the row and aggregates the gathered feature rows while the row's scores
// are still cache-hot. It is opSample's row body followed by opSpMM's —
// rowSampler, then sparse.GatherAxpy — on one row, so fused and unfused
// plans produce bitwise-identical results at either element width (the
// property the fused-vs-unfused identity tests pin down).

// rowScratch holds one row of maxRow elements per worker: the score row of
// the inference variant (sized to the pattern's maximum row degree), which
// materializes no per-edge score tensor at all, and the dot products of
// opMMVJP. Rows are allocated lazily on first use so steady-state execution
// stays allocation-free; the slot table is grown before the sweep, so
// workers only ever touch their own slot.
type rowScratch[T elem] struct {
	rows   [][]T
	maxRow int
}

func (s *rowScratch[T]) ensure() { s.rows = workerSlots(s.rows) }

func (s *rowScratch[T]) row(worker int) []T {
	r := s.rows[worker]
	if r == nil {
		r = make([]T, s.maxRow)
		s.rows[worker] = r
	}
	return r
}

// opAttnFused builds the fused attention sweep. With vals non-nil
// (training plans) the normalized scores are additionally written to the
// sparse node's value buffer inside the same sweep, which is exactly what
// the derived backward pass reads — so fusion needs no backward changes.
// With vals nil (inference plans) scores live in per-worker scratch and
// the nnz-sized buffer is never allocated. softmax selects the
// score→softmax→aggregate shape (GAT/AGNN); without it the masked scores
// aggregate directly (VA).
func opAttnFused[T elem](pat *sparse.CSR, cuts *par.Cuts, vals []T, f score[T], weights []T, rowOff int32, softmax bool, x, out *spec[T]) opFns {
	idx := pat.Index()
	sample := rowSampler(pat, f.row, weights, rowOff, softmax)
	// attend computes output row i with row as the score storage.
	attend := func(i int, row []T) {
		k := out.dense.Cols
		orow := out.dense.Data[i*k : (i+1)*k]
		clear(orow)
		sample(i, row)
		sparse.GatherAxpy(orow, row, idx.Slice(pat.RowPtr[i], pat.RowPtr[i+1]), x.dense.Data, k, 0)
	}
	// ahead asks for what row i+prefetchAhead gathers: the rows it aggregates
	// and, where they are rows of another matrix, those its scores are dot
	// products with.
	ahead := func(i int) {
		prefetchRow(pat, idx, i, x.dense)
		if f.gathers != nil && f.gathers != x {
			prefetchRow(pat, idx, i, f.gathers.dense)
		}
	}
	if vals != nil {
		each := func(i int) { attend(i, vals[pat.RowPtr[i]:pat.RowPtr[i+1]]) }
		body := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ahead(i)
				each(i)
			}
		}
		return opFns{run: func() { par.RangeCuts(cuts, body) }, each: each, rows: pat.Rows}
	}

	// Inference: scores stay in per-worker scratch. The sweep needs the
	// worker id for its scratch row, so it exposes no single-row body —
	// inference fused plans are row-indivisible (partitioning callers
	// compile with NoAttnFuse).
	scratch := &rowScratch[T]{maxRow: pat.MaxRowNNZ()}
	body := func(worker, lo, hi int) {
		buf := scratch.row(worker)
		for i := lo; i < hi; i++ {
			ahead(i)
			attend(i, buf[:pat.RowNNZ(i)])
		}
	}
	return opFns{run: func() {
		scratch.ensure()
		par.RangeCuts(cuts, body)
	}}
}
