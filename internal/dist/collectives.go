package dist

import "fmt"

// Collective operations. All use volume-optimal algorithms: per-rank volume
// is O(n) words for an n-word vector regardless of group size (ring
// reduce-scatter / allgather, scatter + ring-allgather broadcast), matching
// the costs assumed by the Section 7 analysis. Round counts are O(p) for
// the rings — the BSP superstep bound of O(log p) could be recovered with
// recursive doubling, but the paper's bounds are on *volume*, which is what
// the simulated counters must reproduce.
//
// The broadcast, reduce and allreduce a lowered plan issues run in place
// (BcastInto, ReduceInto, AllreduceInto): every chunk is sent from, reduced
// into and received into the caller's buffer, and every received payload is
// borrowed — copied or reduced, then handed back to the endpoint — so a
// step's words cross from one plan buffer to the peer's without a
// collective allocating. The returning Bcast and Allreduce are wrappers that
// run the same code on a fresh copy.

// split is how an n-word vector divides among a group of g: evenly, the
// first n%g chunks one word longer (computed on demand, so a collective
// keeps no bounds slice), or at explicit offsets (Allgather's varying
// lengths).
type split struct {
	n, g int
	at   []int // chunk i is [at[i], at[i+1]); nil: even
}

// chunk returns the [lo, hi) word range of chunk i.
func (s split) chunk(i int) (lo, hi int) {
	if s.at != nil {
		return s.at[i], s.at[i+1]
	}
	base, rem := s.n/s.g, s.n%s.g
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// clone returns a fresh copy of x (never nil).
func clone(x []float64) []float64 { return append(make([]float64, 0, len(x)), x...) }

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

// Bcast broadcasts root's data to every group member and returns a fresh
// copy on every rank, root included. Implemented as direct scatter from root
// followed by a ring allgather: root sends ≈n words, everyone else ≈n.
func (c *Comm) Bcast(data []float64, root int) []float64 { return c.bcast(data, root, false) }

// BcastInto is Bcast in place: buf, as long on every rank as on root, ends
// up holding root's words everywhere.
func (c *Comm) BcastInto(buf []float64, root int) { c.bcast(buf, root, true) }

func (c *Comm) bcast(buf []float64, root int, inPlace bool) []float64 {
	defer c.endCollective(c.beginCollective(collBcast))
	if !inPlace && c.me == root {
		buf = clone(buf)
	}
	g := c.Size()
	if g == 1 {
		return buf
	}
	c.round()
	// Length exchange: root tells everyone the size in a one-word message
	// of its own, counted with the scatter below; the in-place form checks
	// it against the buffer the SPMD program sized.
	n := len(buf)
	if c.me == root {
		c.word[0] = float64(n)
		for r := 0; r < g; r++ {
			if r != root {
				c.Send(r, c.word[:])
			}
		}
	} else {
		hdr := c.recv(root)
		n = int(hdr[0])
		c.recycle(hdr)
		switch {
		case !inPlace:
			buf = make([]float64, n)
		case n != len(buf):
			panic(fmt.Sprintf("dist: BcastInto a %d-word buffer, root %d broadcasts %d", len(buf), root, n))
		}
	}
	sp := split{n: n, g: g}
	// Scatter: root sends chunk r to rank r.
	if c.me == root {
		for r := 0; r < g; r++ {
			if r != root {
				lo, hi := sp.chunk(r)
				c.Send(r, buf[lo:hi])
			}
		}
	} else {
		lo, hi := sp.chunk(c.me)
		c.recvInto(root, buf[lo:hi])
	}
	// Ring allgather of the chunks.
	c.ringAllgather(buf, sp)
	return buf
}

// ringAllgather completes `out` given that each rank holds its own chunk.
func (c *Comm) ringAllgather(out []float64, sp split) {
	g := c.Size()
	right := (c.me + 1) % g
	left := (c.me - 1 + g) % g
	for t := 0; t < g-1; t++ {
		lo, hi := sp.chunk((c.me - t + g) % g)
		c.Send(right, out[lo:hi])
		lo, hi = sp.chunk((c.me - 1 - t + 2*g) % g)
		c.recvInto(left, out[lo:hi])
	}
}

// Allgather concatenates every rank's (equal-length or varying) vector in
// group-rank order and returns the full concatenation.
func (c *Comm) Allgather(data []float64) []float64 {
	defer c.endCollective(c.beginCollective(collAllgather))
	g := c.Size()
	if g == 1 {
		return clone(data)
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
		c.word[0] = float64(lens[sendIdx])
		c.Send(right, c.word[:])
		in := c.recv(left)
		lens[recvIdx] = int(in[0])
		c.recycle(in)
	}
	bounds := make([]int, g+1)
	for i := 0; i < g; i++ {
		bounds[i+1] = bounds[i] + lens[i]
	}
	out := make([]float64, bounds[g])
	copy(out[bounds[c.me]:bounds[c.me+1]], data)
	c.ringAllgather(out, split{at: bounds})
	return out
}

// AllgatherInto is Allgather in place over equal chunks: buf, as long on
// every rank, splits among the group as Bcast splits it; this rank's chunk
// holds its words, and afterwards every chunk holds its owner's. Unlike
// Allgather it exchanges no lengths: the SPMD program sized buf.
func (c *Comm) AllgatherInto(buf []float64) {
	defer c.endCollective(c.beginCollective(collAllgather))
	if c.Size() == 1 {
		return
	}
	c.round()
	c.ringAllgather(buf, split{n: len(buf), g: c.Size()})
}

// ReduceScatterInto sums the group's equal-length bufs in place: afterwards
// this rank's chunk of buf (split as AllgatherInto splits it) holds the
// group's sum, the other chunks partial sums.
func (c *Comm) ReduceScatterInto(buf []float64) { c.reduceScatter(buf, OpSum) }

// ReduceOp is a commutative, associative element-wise reduction: the sum, the
// maximum or the minimum.
type ReduceOp uint8

// OpSum, OpMax and OpMin are the reductions a collective can run.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// into reduces in into dst element-wise, dst[i] = op(dst[i], in[i]), in one
// loop per operator. OpMax keeps dst[i] only where it is greater than in[i],
// OpMin only where it is less: a NaN in in wins either way.
func (op ReduceOp) into(dst, in []float64) {
	dst = dst[:len(in)]
	switch op {
	case OpSum:
		for i, v := range in {
			dst[i] += v
		}
	case OpMax:
		for i, v := range in {
			if !(dst[i] > v) {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range in {
			if !(dst[i] < v) {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("dist: reduction operator %d", op))
	}
}

// reduceScatter is the ring reduce-scatter in place: afterwards this rank's
// chunk of buf holds the group's reduction, the other chunks partial ones.
// Each received chunk is reduced into buf as dst = op(dst, received), the
// order every sum of the runtime has always had.
func (c *Comm) reduceScatter(buf []float64, op ReduceOp) split {
	defer c.endCollective(c.beginCollective(collReduceScatter))
	g := c.Size()
	sp := split{n: len(buf), g: g}
	if g == 1 {
		return sp
	}
	c.round()
	right := (c.me + 1) % g
	left := (c.me - 1 + g) % g
	for t := 0; t < g-1; t++ {
		lo, hi := sp.chunk((c.me - 1 - t + 2*g) % g)
		c.Send(right, buf[lo:hi])
		lo, hi = sp.chunk((c.me - 2 - t + 3*g) % g)
		in := c.recv(left)
		op.into(buf[lo:hi], in)
		c.recycle(in)
	}
	return sp
}

// Allreduce returns the element-wise sum of the group's equal-length
// vectors on every rank (reduce-scatter + allgather; ≈2n words per rank).
func (c *Comm) Allreduce(data []float64) []float64 {
	return c.AllreduceOp(data, OpSum)
}

// AllreduceOp is Allreduce with an arbitrary reduction operator.
func (c *Comm) AllreduceOp(data []float64, op ReduceOp) []float64 {
	out := clone(data)
	c.AllreduceOpInto(out, op)
	return out
}

// AllreduceInto is Allreduce in place: every rank's buf ends up holding the
// sum.
func (c *Comm) AllreduceInto(buf []float64) { c.AllreduceOpInto(buf, OpSum) }

// AllreduceOpInto is AllreduceOp in place.
func (c *Comm) AllreduceOpInto(buf []float64, op ReduceOp) {
	defer c.endCollective(c.beginCollective(collAllreduce))
	if c.Size() == 1 {
		return
	}
	sp := c.reduceScatter(buf, op)
	c.round()
	c.ringAllgather(buf, sp)
}

// ReduceInto sums the group's equal-length vectors onto root in place
// (reduce-scatter + gather): root's buf ends up holding the sum, the other
// ranks' partial sums.
func (c *Comm) ReduceInto(buf []float64, root int) {
	defer c.endCollective(c.beginCollective(collReduce))
	g := c.Size()
	if g == 1 {
		return
	}
	sp := c.reduceScatter(buf, OpSum)
	c.round()
	if c.me != root {
		lo, hi := sp.chunk(c.me)
		c.Send(root, buf[lo:hi])
		return
	}
	for r := 0; r < g; r++ {
		if r != root {
			lo, hi := sp.chunk(r)
			c.recvInto(r, buf[lo:hi])
		}
	}
}

// Gatherv collects every rank's vector on root in group-rank order;
// non-root ranks return nil.
func (c *Comm) Gatherv(data []float64, root int) [][]float64 {
	defer c.endCollective(c.beginCollective(collGatherv))
	g := c.Size()
	if g == 1 {
		return [][]float64{clone(data)}
	}
	c.round()
	if c.me != root {
		c.Send(root, data)
		return nil
	}
	out := make([][]float64, g)
	out[root] = clone(data)
	for r := 0; r < g; r++ {
		if r != root {
			out[r] = c.Recv(r)
		}
	}
	return out
}

// Alltoallv sends out[r] to each rank r and returns the vectors received
// from every rank (in group-rank order).
func (c *Comm) Alltoallv(out [][]float64) [][]float64 {
	defer c.endCollective(c.beginCollective(collAlltoallv))
	g := c.Size()
	in := make([][]float64, g)
	if g == 1 {
		in[0] = clone(out[0])
		return in
	}
	c.round()
	for r := 0; r < g; r++ {
		if r == c.me {
			in[r] = clone(out[r])
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
