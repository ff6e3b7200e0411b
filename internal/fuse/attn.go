package fuse

import (
	"math"

	"agnn/internal/par"
	"agnn/internal/sparse"
)

// The fused SDDMM + edge-softmax + SpMM attention op. The unfused op
// sequence writes nnz normalized scores in one sweep and re-reads them in
// the next; the fused op samples the composed virtual scores, normalizes
// the row and aggregates the gathered feature rows while the row's scores
// are still cache-hot. Per-row arithmetic matches the opSample→opSpMM
// sequence operation-for-operation, so fused and unfused plans produce
// bitwise-identical results at either element width — the property the
// fused-vs-unfused identity tests pin down. The sweep is written out rather
// than composed from opSample's and opSpMM's row bodies: handing the score
// row between two per-row closures measured 10–25 % slower single-threaded
// on the inference sweeps (R-MAT 15 / ER 32k, k = 32).

// attnScratch holds one per-worker score row (sized to the pattern's
// maximum row degree) for the inference variant, which materializes no
// per-edge score tensor at all. Rows are allocated lazily on first use so
// steady-state execution stays allocation-free; the slot table is grown
// before the sweep, so workers only ever touch their own slot.
type attnScratch[T elem] struct {
	rows   [][]T
	maxRow int
}

func (s *attnScratch[T]) ensure() { s.rows = workerSlots(s.rows) }

func (s *attnScratch[T]) row(worker int) []T {
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
	if vals != nil {
		each := func(i int) {
			xd, od := x.dense, out.dense
			k := od.Cols
			orow := od.Data[i*k : (i+1)*k]
			clear(orow)
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			if b == e {
				return
			}
			gi := int32(i) + rowOff
			if softmax {
				m := T(math.Inf(-1))
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					vals[p] = v
					if v > m {
						m = v
					}
				}
				var sum T
				for p := b; p < e; p++ {
					v := exp(vals[p] - m)
					vals[p] = v
					sum += v
				}
				inv := 1 / sum
				for p := b; p < e; p++ {
					vals[p] *= inv
				}
			} else {
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					vals[p] = v
				}
			}
			for p := b; p < e; p++ {
				v := vals[p]
				xrow := xd.Data[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
				for t, xv := range xrow {
					orow[t] += v * xv
				}
			}
		}
		body := rowSweep(each)
		return opFns{run: func() { par.RangeCuts(cuts, body) }, each: each, rows: pat.Rows}
	}

	// Inference: scores stay in per-worker scratch. The sweep needs the
	// worker id for its scratch row, so it exposes no single-row body —
	// inference fused plans are row-indivisible (partitioning callers
	// compile with NoAttnFuse).
	scratch := &attnScratch[T]{maxRow: pat.MaxRowNNZ()}
	body := func(worker, lo, hi int) {
		buf := scratch.row(worker)
		xd, od := x.dense, out.dense
		k := od.Cols
		for i := lo; i < hi; i++ {
			orow := od.Data[i*k : (i+1)*k]
			clear(orow)
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			if b == e {
				continue
			}
			gi := int32(i) + rowOff
			row := buf[:e-b]
			if softmax {
				m := T(math.Inf(-1))
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					row[p-b] = v
					if v > m {
						m = v
					}
				}
				var sum T
				for q, v := range row {
					v = exp(v - m)
					row[q] = v
					sum += v
				}
				inv := 1 / sum
				for q := range row {
					row[q] *= inv
				}
			} else {
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					row[p-b] = v
				}
			}
			for p := b; p < e; p++ {
				v := row[p-b]
				xrow := xd.Data[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
				for t, xv := range xrow {
					orow[t] += v * xv
				}
			}
		}
	}
	return opFns{run: func() {
		scratch.ensure()
		par.RangeCuts(cuts, body)
	}}
}
