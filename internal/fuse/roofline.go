package fuse

// Roofline accounting: each compiled op carries a static estimate of the
// bytes it moves to and from memory, derived from compile-time shapes the
// same way opCost derives flops. flops/bytes is the op's arithmetic
// intensity, which together with the measured op latency places each op
// class on a roofline plot (GF/s vs intensity) — the Section 7 cost-model
// view, made measurable per kernel. The model counts algorithmic traffic
// (every word touched once per pass), not cache-aware traffic: it is an
// upper bound on compulsory misses and a stable denominator for
// regression-gating bytes-moved-per-edge in CI.

// indexBytes is the width of the int32 CSR column indices, the one storage
// type whose width does not change with the plan dtype.
const indexBytes = 4

// dotNode returns the X·Yᵀ product ("mmt") — or the squared distance
// ("sqdist"), which reads the same two rows — in the virtual chain an op
// rooted at n evaluates per non-zero, or nil when the chain has none.
func dotNode(n *Node) *Node {
	if n.Op == "mmt" || n.Op == "sqdist" {
		return n
	}
	for _, in := range n.Inputs {
		if in.Kind == Sparse || in.Kind == Virtual {
			if d := dotNode(in); d != nil {
				return d
			}
		}
	}
	return nil
}

// dotWidth returns the feature width k of that product, or 0 without one.
// GAT's u[i] + v[j] scores read two scalars per non-zero; a dot-product chain
// (VA, AGNN) additionally gathers the k-wide row Y[j].
func dotWidth(g *Graph, n *Node) int64 {
	if d := dotNode(n); d != nil {
		return int64(g.md(d.Inputs[0]).cols)
	}
	return 0
}

// opBytes estimates, from compile-time shapes, the memory traffic of one
// execution of an op: CSR traffic (values + column indices + one gathered
// feature row per non-zero) for sparse sweeps, operand reads + result
// writes for dense kernels. fb is the float element width of the plan's
// dtype (8 for f64, 4 for f32) — the lever that halves every value-traffic
// term on the f32 path; kept is the words a training plan's fused attention
// sweep writes for its backward (0 in inference, the nnz normalized scores,
// or under GAT's fused backward the 2·n row statistics). Backward variants
// approximately double the forward traffic, mirroring opCost (the fused
// attention VJP's values are counted as they move).
func opBytes(g *Graph, n *Node, op string, nnz int, backward bool, kept, fb int64) int64 {
	s := g.md(n)
	r, c := int64(s.rows), int64(s.cols)
	nz := int64(nnz)
	var b int64
	if _, bcast, ok := collective(op); ok {
		// The payload written (broadcast) or read and written (reduce).
		b = fb * r * max(c, 1)
		if !bcast {
			b *= 2
		}
		return b
	}
	switch op {
	case "mm":
		k := int64(g.md(n.Inputs[0]).cols)
		b = fb * (r*k + k*c + r*c)
	case "spmm", "spmm-max", "spmm-min", "spmm-mean":
		// Values + indices in, one gathered X row per non-zero, output out.
		b = (fb+indexBytes)*nz + fb*(nz*c+r*c)
	case "mask":
		// Pattern sweep: indices in, two composed-score operands per entry
		// plus the gathered row of a dot-product chain, values out. (The
		// mask VJP only copies or re-weights the cotangent.)
		b = indexBytes*nz + 3*fb*nz
		if !backward {
			b += fb * nz * dotWidth(g, n)
		}
	case "softmax":
		// Three passes over the row values: max (read), exp+sum
		// (read+write), normalize (read+write).
		b = 5 * fb * nz
	case "fused-softmax":
		// Sampling sweep (indices + two score operands + the gathered row
		// of a dot-product chain in, values out) plus the in-place softmax
		// passes over the freshly written values.
		b = indexBytes*nz + 7*fb*nz + fb*nz*dotWidth(g, n)
	case "fused-attn":
		if backward {
			// opAttnFusedVJP's two sweeps, neither of which reads a stored
			// Ψ or writes anything per non-zero. The row sweep reads per
			// non-zero a gathered X row and v_j, and per row Z̄'s row, u_i,
			// ū_i and the row's max and reciprocal sum, and writes ρ_i; the
			// transposed sweep gathers per non-zero a Z̄ row — both its
			// products read it — and u_i, m_i, c_i and ρ_i, and per row reads
			// v_j and X's row and updates X̄'s row and v̄_j. The values are
			// counted as they move, not doubled: doubled, the two gathered
			// rows per non-zero would count four times and the estimate
			// would exceed the per-op VJPs' it replaces. The index words —
			// the columns of S and of Sᵀ, each walked by its sweep's gathers
			// and again by its per-entry loop — are doubled, as every
			// backward estimate's are.
			return 2*4*indexBytes*nz + fb*(nz*(2*c+5)+r*(4*c+8))
		}
		// One sweep: indices + two score operands (+ the gathered row of a
		// dot-product chain) in, one gathered X row per non-zero, output
		// rows out. Softmax passes run over the row's scores while they
		// are cache-hot; training plans additionally write what the
		// backward reads, kept (inference never materializes the scores —
		// the fusion's saving). Where the sweep aggregates the very rows it
		// took the dot products with — Ψ·H under scores H·Hᵀ, the (Ψ·H)·W
		// order — row j comes from memory once per non-zero, not twice.
		b = indexBytes*nz + 2*fb*nz + fb*(nz*c+r*c)
		if d := dotNode(n); d != nil && d.Inputs[1] != n.Inputs[1] {
			b += fb * nz * dotWidth(g, d)
		}
		if n.Inputs[0].Op == "softmax" {
			b += 2 * fb * nz
		}
		b += fb * kept
	case "matvec":
		k := int64(g.md(n.Inputs[0]).cols)
		b = fb * (r*k + k + r)
	case "rownorm":
		k := int64(g.md(n.Inputs[0]).cols)
		b = fb * (r*k + r)
	case "sigma":
		b = 2 * fb * r * c
	case "gin-combine":
		b = 3 * fb * r * c
	case "concat":
		b = 2 * fb * r * c
	case "mean":
		b = fb * r * c * int64(len(n.Inputs)+1)
	default:
		// Virtual-node VJP sweeps: one pattern pass re-evaluating scores
		// entry-wise (indices + two operands + the gathered row of a
		// dot-product chain in, cotangent out).
		b = indexBytes*nz + 3*fb*nz + fb*nz*dotWidth(g, n)
	}
	if backward {
		b *= 2
	}
	return b
}
