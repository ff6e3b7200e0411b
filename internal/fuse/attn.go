package fuse

import (
	"agnn/internal/par"
	"agnn/internal/sparse"
)

// The fused SDDMM + edge-softmax + SpMM attention op, and the backward of
// GAT's. The unfused op sequence writes nnz normalized scores in one sweep
// and re-reads them in the next; the fused op samples the composed virtual
// scores, normalizes the row and aggregates the gathered feature rows while
// the row's scores are still cache-hot. It is opSample's row body followed
// by opSpMM's — rowSampler, then sparse.GatherAxpy — on one row, so fused and
// unfused plans produce bitwise-identical results at either element width
// (the property the fused-vs-unfused identity tests pin down). The backward
// (opAttnFusedVJP) does the same to the VJP chain under GAT's aggregation.

// rowScratch holds one row of maxRow elements per worker: the score row of a
// fused sweep that materializes no per-edge score tensor (sized to the
// pattern's maximum row degree), and the dot products of opMMVJP. Rows are
// allocated lazily on first use so steady-state execution stays
// allocation-free; the slot table is grown before the sweep, so workers only
// ever touch their own slot.
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

// opAttnFused builds the fused attention sweep. softmax selects the
// score→softmax→aggregate shape (GAT/AGNN); without it the masked scores
// aggregate directly (VA). Where the scores go:
//   - vals non-nil (a training plan whose backward runs the per-op VJPs:
//     AGNN's, VA's): the normalized scores are written to the sparse node's
//     value buffer inside the same sweep, for those VJPs to read;
//   - otherwise they live in per-worker scratch and no nnz-sized buffer
//     exists: in inference, and in a GAT training plan, whose backward
//     (opAttnFusedVJP) recomputes them. There stats non-nil receives each
//     row's max and reciprocal sum, 2·n words, all the recompute needs.
func opAttnFused[T elem](pat *sparse.CSR, cuts *par.Cuts, vals, stats []T, f score[T], weights []T, softmax bool, x, out *spec[T]) func() {
	idx := pat.Index()
	sample := rowSampler(pat, f.row, weights, softmax, stats)
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
		body := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ahead(i)
				attend(i, vals[pat.RowPtr[i]:pat.RowPtr[i+1]])
			}
		}
		return func() { par.RangeCuts(cuts, body) }
	}

	// The scores stay in per-worker scratch, one row per worker.
	scratch := &rowScratch[T]{maxRow: pat.MaxRowNNZ()}
	body := func(worker, lo, hi int) {
		buf := scratch.row(worker)
		for i := lo; i < hi; i++ {
			ahead(i)
			attend(i, buf[:pat.RowNNZ(i)])
		}
	}
	return func() {
		scratch.ensure()
		par.RangeCuts(cuts, body)
	}
}

// opAttnFusedVJP is the backward of a fused attention aggregation Z = Ψ·X
// over GAT's scores, Ψ = softmax(A ⊙ LeakyReLU(u·1ᵀ + 1·vᵀ)): the VJP chain
// spmm ← softmax ← mask ← lrelu ← u·1ᵀ + 1·vᵀ the compiler derives, run as
// two sweeps over the pattern instead of one or two per op. It keeps no
// buffer of nnz words: what crosses from one sweep to the other is ρ, one
// word per row.
//
// Ψ itself is not stored: the forward (opAttnFused) kept only each row's max
// m_i and reciprocal sum c_i in stats, and both sweeps recompute Ψ_ij where
// they read it, as exp(s_ij − m_i)·c_i with s_ij = LeakyReLU(u_i + v_j)·A_ij —
// the forward's operations on the forward's operands in the forward's order,
// so every recomputed Ψ_ij has the forward's bits (psiRow, and the
// transposed sweep below).
//
// The row sweep runs on row i what the per-op VJPs run on it, in their
// order: Ψ_i· into one per-worker scratch row; Ψ̄_ij = Z̄[i,:]·X[j,:]
// (opSpMMVJP's GatherDots) into another; ρ_i = Σ_j Ψ̄_ij·Ψ_ij, kept in rho;
// then per entry C̄_ij = Ψ_ij·(Ψ̄_ij − ρ_i), times A's value under a weighted
// mask, times LeakyReLU′ at u_i + v_j (u_i held, v_j gathered); their row sum
// into ū_i. The transposed sweep then works on row j of Sᵀ: it gathers u_i,
// m_i, c_i and ρ_i by the row's column ids (n-long vectors, cache-resident),
// takes A_ij through Src, recomputes the row's Ψ_ij into scratch, and
// accumulates X̄[j,:] += Σ_i Ψ_ij·Z̄[i,:] through GatherAxpy. Over the same
// Z̄ rows GatherDots forms Ψ̄_ij = X[j,:]·Z̄[i,:] a second time, the row
// sweep's bits — a product commutes exactly, and the dot's lane order does
// not depend on which row is held — and each C̄_ij is formed again with the
// row sweep's operations, in the loop that scales Ψ_ij, to be summed into
// v̄_j in Sᵀ's order. One more k-wide dot per entry buys the nnz words of C̄
// and the scatter through the inverse of Src. Every entry gets the per-op
// VJPs' operations and every row and column sum its order, so the two
// lowerings agree bit for bit (NoAttnFuse compiles the per-op chain).
func opAttnFusedVJP[T elem](pat *sparse.CSR, cuts, cutsT *par.Cuts, tr *transposedRows[T],
	stats, rho []T, f score[T], weights []T, slope T, x, out, u, v *spec[T]) func() {
	idx := pat.Index()
	maxRow := max(pat.MaxRowNNZ(), tr.patT.MaxRowNNZ())
	psiRow := rowSampler(pat, f.row, weights, false, nil)
	// Two rows per worker — Ψ and Ψ̄ — in either sweep.
	scratch := &rowScratch[T]{maxRow: 2 * maxRow}
	rowBody := func(worker, lo, hi int) {
		og, xd := out.gdense, x.dense
		k := og.Cols
		uv, vv, ug := u.vec, v.vec, u.gvec
		buf := scratch.row(worker)
		for i := lo; i < hi; i++ {
			prefetchRow(pat, idx, i, xd)
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			cols, p, g := idx.Slice(b, e), buf[:e-b], buf[maxRow:][:e-b]
			if b < e {
				psiRow(i, p)
				sparse.ExpRow(p, p, stats[2*i])
				scaleRow(p, stats[2*i+1])
			}
			sparse.GatherDots(g, og.Data[i*k:(i+1)*k], cols, xd.Data, k, 0)
			var r T
			for q, gq := range g {
				r += gq * p[q]
			}
			rho[i] = r
			ui := uv[i]
			var sum T
			for q, j := range cols.Cols() {
				c := p[q] * (g[q] - r)
				if weights != nil {
					c *= weights[b+int64(q)]
				}
				c *= lreluD(ui+vv[j], slope)
				sum += c
			}
			ug[i] += sum
		}
	}
	patT, idxT, src := tr.patT, tr.idxT, tr.src
	colBody := func(worker, lo, hi int) {
		og, xd, xg, vg := out.gdense, x.dense, x.gdense, v.gvec
		k := xg.Cols
		uv, vv := u.vec, v.vec
		buf := scratch.row(worker)
		for j := lo; j < hi; j++ {
			prefetchRow(patT, idxT, j, og)
			b, e := patT.RowPtr[j], patT.RowPtr[j+1]
			cols, psi, g := idxT.Slice(b, e), buf[:e-b], buf[maxRow:][:e-b]
			sparse.GatherDots(g, xd.Data[j*k:(j+1)*k], cols, og.Data, k, 0)
			// s_ij − m_i, then exp(· − 0): x − 0 is x, so each lane sees the
			// argument the forward's ExpRow formed as s_ij − m_i.
			vj := vv[j]
			for q, i := range cols.Cols() {
				s := lrelu(uv[i]+vj, slope)
				if weights != nil {
					s = T(s * weights[src[b+int64(q)]])
				}
				psi[q] = s - stats[2*i]
			}
			sparse.ExpRow(psi, psi, 0)
			var sum T
			for q, i := range cols.Cols() {
				p := psi[q] * stats[2*i+1]
				psi[q] = p
				c := p * (g[q] - rho[i])
				if weights != nil {
					c *= weights[src[b+int64(q)]]
				}
				c *= lreluD(uv[i]+vj, slope)
				sum += c
			}
			sparse.GatherAxpy(xg.Data[j*k:(j+1)*k], psi, cols, og.Data, k, 0)
			vg[j] += sum
		}
	}
	return func() {
		scratch.ensure()
		par.RangeCuts(cuts, rowBody)
		par.RangeCuts(cutsT, colBody)
	}
}
