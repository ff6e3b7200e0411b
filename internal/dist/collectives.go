package dist

// Collective operations. All use volume-optimal algorithms: per-rank volume
// is O(n) words for an n-word vector regardless of group size (ring
// reduce-scatter / allgather, scatter + ring-allgather broadcast), matching
// the costs assumed by the Section 7 analysis. Round counts are O(p) for
// the rings — the BSP superstep bound of O(log p) could be recovered with
// recursive doubling, but the paper's bounds are on *volume*, which is what
// the simulated counters must reproduce.

// chunkBounds splits n words into g nearly equal chunks.
func chunkBounds(n, g int) []int {
	b := make([]int, g+1)
	base, rem := n/g, n%g
	for i := 0; i < g; i++ {
		sz := base
		if i < rem {
			sz++
		}
		b[i+1] = b[i] + sz
	}
	return b
}

// Barrier synchronizes the group with a two-pass token ring: the first
// circulation proves every rank has entered, the second releases them.
func (c *Comm) Barrier() {
	defer c.endCollective(c.beginCollective(collBarrier))
	g := c.Size()
	if g == 1 {
		return
	}
	c.round()
	right := (c.me + 1) % g
	left := (c.me - 1 + g) % g
	if c.me == 0 {
		c.Send(right, nil) // arm token
		c.Recv(left)       // token returned: everyone entered
		c.Send(right, nil) // release token
		c.Recv(left)       // release returned
		return
	}
	c.Recv(left)
	c.Send(right, nil)
	c.Recv(left)
	c.Send(right, nil)
}

// Bcast broadcasts root's data to every group member and returns the local
// copy (root returns its input). Implemented as direct scatter from root
// followed by a ring allgather: root sends ≈n words, everyone else ≈n.
func (c *Comm) Bcast(data []float64, root int) []float64 {
	defer c.endCollective(c.beginCollective(collBcast))
	g := c.Size()
	if g == 1 {
		return data
	}
	c.round()
	// Length exchange: root tells everyone the size (counted as one small
	// message within the scatter below; we piggyback by sending the chunk
	// with an explicit first element header-free — lengths are agreed upon
	// by the SPMD program, so ranks must pass a correctly sized buffer).
	var n int
	if c.me == root {
		n = len(data)
		hdr := []float64{float64(n)}
		for r := 0; r < g; r++ {
			if r != root {
				c.Send(r, hdr)
			}
		}
	} else {
		n = int(c.Recv(root)[0])
	}
	bounds := chunkBounds(n, g)
	out := make([]float64, n)
	// Scatter: root sends chunk r to rank r.
	if c.me == root {
		copy(out, data)
		for r := 0; r < g; r++ {
			if r != root {
				c.Send(r, data[bounds[r]:bounds[r+1]])
			}
		}
	} else {
		chunk := c.Recv(root)
		copy(out[bounds[c.me]:bounds[c.me+1]], chunk)
	}
	// Ring allgather of the chunks.
	c.ringAllgather(out, bounds)
	return out
}

// ringAllgather completes `out` given that each rank holds its own chunk.
func (c *Comm) ringAllgather(out []float64, bounds []int) {
	g := c.Size()
	right := (c.me + 1) % g
	left := (c.me - 1 + g) % g
	for t := 0; t < g-1; t++ {
		sendIdx := (c.me - t + g) % g
		recvIdx := (c.me - 1 - t + 2*g) % g
		c.Send(right, out[bounds[sendIdx]:bounds[sendIdx+1]])
		chunk := c.Recv(left)
		copy(out[bounds[recvIdx]:bounds[recvIdx+1]], chunk)
	}
}

// Allgather concatenates every rank's (equal-length or varying) vector in
// group-rank order and returns the full concatenation.
func (c *Comm) Allgather(data []float64) []float64 {
	defer c.endCollective(c.beginCollective(collAllgather))
	g := c.Size()
	if g == 1 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	c.round()
	// Exchange lengths around the ring first (g-1 tiny messages).
	lens := make([]int, g)
	lens[c.me] = len(data)
	right := (c.me + 1) % g
	left := (c.me - 1 + g) % g
	for t := 0; t < g-1; t++ {
		sendIdx := (c.me - t + g) % g
		recvIdx := (c.me - 1 - t + 2*g) % g
		c.Send(right, []float64{float64(lens[sendIdx])})
		lens[recvIdx] = int(c.Recv(left)[0])
	}
	bounds := make([]int, g+1)
	for i := 0; i < g; i++ {
		bounds[i+1] = bounds[i] + lens[i]
	}
	out := make([]float64, bounds[g])
	copy(out[bounds[c.me]:bounds[c.me+1]], data)
	c.ringAllgather(out, bounds)
	return out
}

// ReduceOp is a commutative, associative element-wise reduction operator.
type ReduceOp func(a, b float64) float64

// OpSum, OpMax and OpMin are the standard reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// ReduceScatter sums the group's equal-length vectors element-wise and
// returns this rank's chunk of the result (chunk boundaries from
// chunkBounds). Ring algorithm: per-rank volume ≈ n words.
func (c *Comm) ReduceScatter(data []float64) []float64 {
	return c.ReduceScatterOp(data, OpSum)
}

// ReduceScatterOp is ReduceScatter with an arbitrary reduction operator.
func (c *Comm) ReduceScatterOp(data []float64, op ReduceOp) []float64 {
	defer c.endCollective(c.beginCollective(collReduceScatter))
	g := c.Size()
	bounds := chunkBounds(len(data), g)
	if g == 1 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	c.round()
	acc := make([]float64, len(data))
	copy(acc, data)
	right := (c.me + 1) % g
	left := (c.me - 1 + g) % g
	for t := 0; t < g-1; t++ {
		sendIdx := (c.me - 1 - t + 2*g) % g
		recvIdx := (c.me - 2 - t + 3*g) % g
		c.Send(right, acc[bounds[sendIdx]:bounds[sendIdx+1]])
		chunk := c.Recv(left)
		dst := acc[bounds[recvIdx]:bounds[recvIdx+1]]
		for i, v := range chunk {
			dst[i] = op(dst[i], v)
		}
	}
	mine := make([]float64, bounds[c.me+1]-bounds[c.me])
	copy(mine, acc[bounds[c.me]:bounds[c.me+1]])
	return mine
}

// Allreduce returns the element-wise sum of the group's equal-length
// vectors on every rank (reduce-scatter + allgather; ≈2n words per rank).
func (c *Comm) Allreduce(data []float64) []float64 {
	return c.AllreduceOp(data, OpSum)
}

// AllreduceOp is Allreduce with an arbitrary reduction operator.
func (c *Comm) AllreduceOp(data []float64, op ReduceOp) []float64 {
	defer c.endCollective(c.beginCollective(collAllreduce))
	g := c.Size()
	if g == 1 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	mine := c.ReduceScatterOp(data, op)
	bounds := chunkBounds(len(data), g)
	out := make([]float64, len(data))
	copy(out[bounds[c.me]:bounds[c.me+1]], mine)
	c.round()
	c.ringAllgather(out, bounds)
	return out
}

// Reduce sums the group's vectors onto root (reduce-scatter + gather).
// Non-root ranks return nil.
func (c *Comm) Reduce(data []float64, root int) []float64 {
	defer c.endCollective(c.beginCollective(collReduce))
	g := c.Size()
	if g == 1 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	mine := c.ReduceScatter(data)
	bounds := chunkBounds(len(data), g)
	c.round()
	if c.me == root {
		out := make([]float64, len(data))
		copy(out[bounds[root]:bounds[root+1]], mine)
		for r := 0; r < g; r++ {
			if r == root {
				continue
			}
			chunk := c.Recv(r)
			copy(out[bounds[r]:bounds[r+1]], chunk)
		}
		return out
	}
	c.Send(root, mine)
	return nil
}

// Gatherv collects every rank's vector on root in group-rank order;
// non-root ranks return nil.
func (c *Comm) Gatherv(data []float64, root int) [][]float64 {
	defer c.endCollective(c.beginCollective(collGatherv))
	g := c.Size()
	if g == 1 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return [][]float64{cp}
	}
	c.round()
	if c.me != root {
		c.Send(root, data)
		return nil
	}
	out := make([][]float64, g)
	cp := make([]float64, len(data))
	copy(cp, data)
	out[root] = cp
	for r := 0; r < g; r++ {
		if r != root {
			out[r] = c.Recv(r)
		}
	}
	return out
}

// Scatterv sends chunks[r] to each group rank r from root and returns the
// local chunk. Non-root callers pass nil.
func (c *Comm) Scatterv(chunks [][]float64, root int) []float64 {
	defer c.endCollective(c.beginCollective(collScatterv))
	g := c.Size()
	if g == 1 {
		cp := make([]float64, len(chunks[0]))
		copy(cp, chunks[0])
		return cp
	}
	c.round()
	if c.me == root {
		for r := 0; r < g; r++ {
			if r != root {
				c.Send(r, chunks[r])
			}
		}
		cp := make([]float64, len(chunks[root]))
		copy(cp, chunks[root])
		return cp
	}
	return c.Recv(root)
}

// Alltoallv sends out[r] to each rank r and returns the vectors received
// from every rank (in group-rank order).
func (c *Comm) Alltoallv(out [][]float64) [][]float64 {
	defer c.endCollective(c.beginCollective(collAlltoallv))
	g := c.Size()
	in := make([][]float64, g)
	if g == 1 {
		cp := make([]float64, len(out[0]))
		copy(cp, out[0])
		in[0] = cp
		return in
	}
	c.round()
	for r := 0; r < g; r++ {
		if r == c.me {
			cp := make([]float64, len(out[r]))
			copy(cp, out[r])
			in[r] = cp
			continue
		}
		c.Send(r, out[r])
	}
	for r := 0; r < g; r++ {
		if r != c.me {
			in[r] = c.Recv(r)
		}
	}
	return in
}
