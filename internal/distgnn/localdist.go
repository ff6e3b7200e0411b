package distgnn

import (
	"fmt"
	"sort"

	"agnn/internal/dist"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/local"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// LocalEngine is the distributed *local-formulation* baseline modeling
// DistDGL's cost structure: vertices are 1D-partitioned, each rank owns the
// feature rows of its vertices, and every layer begins with a halo exchange
// that pulls the features of all remote neighbors of owned vertices —
// Θ(k · boundary-edges/p) words per rank, up to the Ω(nkd/p) of the
// theoretical analysis. Full-batch forward implements the inference
// comparison of Section 8.4; MiniBatchStep implements DistDGL's 16k-vertex
// mini-batch training used as the Fig. 6/8 baseline.
type LocalEngine struct {
	C      *dist.Comm
	Part   graph.Partition
	Lo, Hi int // owned vertex range

	full     *sparse.CSR  // preprocessed adjacency (replicated at setup)
	extGraph *local.Graph // owned rows over [owned ++ halo] columns
	halo     []int32      // sorted global ids of remote neighbors
	haloIdx  map[int32]int32
	needFrom [][]int32 // per remote rank: global ids we pull each layer
	sendTo   [][]int32 // per remote rank: our owned ids they pull
	model    *gnn.Model
	cfg      gnn.Config
}

// NewLocalEngine builds the baseline engine; like NewGlobalEngine it takes
// the adjacency replicated for setup convenience (DistDGL's partitioner
// runs offline) — only the per-layer feature traffic is measured.
func NewLocalEngine(c *dist.Comm, a *sparse.CSR, cfg gnn.Config) (*LocalEngine, error) {
	cfg = cfg.Defaults()
	if cfg.DType != tensor.F64 {
		return nil, fmt.Errorf("distgnn: the local-formulation baseline requires f64 (got DType=%s)", cfg.DType)
	}
	a = cfg.Prep().Apply(a)
	p := c.Size()
	part := graph.Partition1D(a.Rows, p)
	lo, hi := part.Range(c.Rank())

	e := &LocalEngine{C: c, Part: part, Lo: lo, Hi: hi, full: a, cfg: cfg,
		haloIdx: make(map[int32]int32)}

	// Collect remote neighbors of owned vertices (the halo).
	seen := make(map[int32]bool)
	for i := lo; i < hi; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.Col[q]
			if int(j) < lo || int(j) >= hi {
				seen[j] = true
			}
		}
	}
	for v := range seen {
		e.halo = append(e.halo, v)
	}
	sort.Slice(e.halo, func(x, y int) bool { return e.halo[x] < e.halo[y] })
	for idx, v := range e.halo {
		e.haloIdx[v] = int32(idx)
	}
	e.needFrom = make([][]int32, p)
	for _, v := range e.halo {
		r := part.Owner(int(v))
		e.needFrom[r] = append(e.needFrom[r], v)
	}
	// Exchange request lists so each rank knows what to send (setup-time).
	reqs := make([][]float64, p)
	for r := 0; r < p; r++ {
		reqs[r] = idsToFloats(e.needFrom[r])
	}
	got := c.Alltoallv(reqs)
	e.sendTo = make([][]int32, p)
	for r := 0; r < p; r++ {
		e.sendTo[r] = floatsToIDs(got[r])
	}

	// Extended local graph: owned rows, columns remapped to
	// [0, nOwned) ++ [nOwned, nOwned+halo).
	nOwned := hi - lo
	next := nOwned + len(e.halo)
	coo := sparse.NewCOO(next, next, int(a.RowPtr[hi]-a.RowPtr[lo]))
	for i := lo; i < hi; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			coo.AppendFrom(int32(i-lo), e.localCol(a.Col[q]), a.Val, q)
		}
	}
	e.extGraph = local.FromCSR(sparse.FromCOO(coo))

	// Replicated weights: the layers gnn.New builds, so the engine is
	// bit-compatible with the single-node models, mirrored onto the extended
	// graph.
	defs, err := gnn.NewBound(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	if e.model, err = local.MirrorOn(defs, e.extGraph); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *LocalEngine) localCol(j int32) int32 {
	if int(j) >= e.Lo && int(j) < e.Hi {
		return j - int32(e.Lo)
	}
	return int32(e.Hi-e.Lo) + e.haloIdx[j]
}

// haloExchange pulls the current-layer features of every halo vertex from
// their owners and returns the extended feature matrix [owned ++ halo].
// This is the per-layer Θ(k·halo) traffic of the local formulation.
func (e *LocalEngine) haloExchange(h *tensor.Dense) *tensor.Dense {
	sp := e.C.StartSpan("halo_exchange")
	defer sp.End()
	p := e.C.Size()
	k := h.Cols
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		buf := make([]float64, 0, len(e.sendTo[r])*k)
		for _, v := range e.sendTo[r] {
			buf = append(buf, h.Row(int(v)-e.Lo)...)
		}
		out[r] = buf
	}
	in := e.C.Alltoallv(out)
	ext := tensor.NewDense(e.Hi-e.Lo+len(e.halo), k)
	for i := 0; i < e.Hi-e.Lo; i++ {
		copy(ext.Row(i), h.Row(i))
	}
	for r := 0; r < p; r++ {
		for x, v := range e.needFrom[r] {
			copy(ext.Row(int(e.localCol(v))), in[r][x*k:(x+1)*k])
		}
	}
	return ext
}

// Forward runs full-batch inference over the 1D partition: every layer is a
// halo exchange followed by local per-vertex message passing; the owned
// output rows are returned.
func (e *LocalEngine) Forward(hOwned *tensor.Dense) *tensor.Dense {
	nOwned := e.Hi - e.Lo
	h := hOwned
	for i := range e.model.Layers {
		out := e.model.LayerForward(i, e.haloExchange(h))
		h = out.SliceRows(0, nOwned).Clone()
	}
	return h
}

// GatherOutput assembles the full output on rank 0 (test helper).
func (e *LocalEngine) GatherOutput(out *tensor.Dense) *tensor.Dense {
	parts := e.C.Gatherv(out.Data, 0)
	if e.C.Rank() != 0 {
		return nil
	}
	full := tensor.NewDense(e.Part.N, out.Cols)
	row := 0
	for r := 0; r < e.C.Size(); r++ {
		blk := parts[r]
		for off := 0; off+out.Cols <= len(blk); off += out.Cols {
			copy(full.Row(row), blk[off:off+out.Cols])
			row++
		}
	}
	return full
}

// MiniBatchStep runs one DistDGL-style training step: each rank expands a
// seed batch from its own partition by Layers hops, pulls the features of
// every subgraph vertex it does not own (the mini-batch variant of the halo
// traffic), trains on the induced subgraph, and allreduces gradients.
// hOwned are this rank's feature rows; labels are global (replicated).
func (e *LocalEngine) MiniBatchStep(hOwned *tensor.Dense, labels []int, seeds []int32, opt gnn.Optimizer) float64 {
	sp := e.C.StartSpan("minibatch_step")
	defer sp.End()
	ex := e.C.StartSpan("minibatch_expand")
	fullG := local.FromCSR(e.full)
	batch := local.NeighborhoodExpand(fullG, seeds, e.cfg.Layers)
	ex.End()

	// Pull remote feature rows for the batch.
	p := e.C.Size()
	need := make([][]int32, p)
	for _, v := range batch.Vertices {
		r := e.Part.Owner(int(v))
		if r != e.C.Rank() {
			need[r] = append(need[r], v)
		}
	}
	reqs := make([][]float64, p)
	for r := 0; r < p; r++ {
		reqs[r] = idsToFloats(need[r])
	}
	gotReqs := e.C.Alltoallv(reqs)
	resp := make([][]float64, p)
	k := hOwned.Cols
	for r := 0; r < p; r++ {
		ids := floatsToIDs(gotReqs[r])
		buf := make([]float64, 0, len(ids)*k)
		for _, v := range ids {
			buf = append(buf, hOwned.Row(int(v)-e.Lo)...)
		}
		resp[r] = buf
	}
	gotFeat := e.C.Alltoallv(resp)

	feats := tensor.NewDense(len(batch.Vertices), k)
	pos := make(map[int32]int, len(batch.Vertices))
	for i, v := range batch.Vertices {
		pos[v] = i
	}
	for i, v := range batch.Vertices {
		if r := e.Part.Owner(int(v)); r == e.C.Rank() {
			copy(feats.Row(i), hOwned.Row(int(v)-e.Lo))
		}
	}
	for r := 0; r < p; r++ {
		for x, v := range need[r] {
			copy(feats.Row(pos[v]), gotFeat[r][x*k:(x+1)*k])
		}
	}

	tr := e.C.StartSpan("minibatch_train")
	sub, err := local.Rebind(e.model, batch.Sub)
	if err != nil {
		panic(err)
	}
	batchLabels := make([]int, len(batch.Vertices))
	for i, v := range batch.Vertices {
		batchLabels[i] = labels[v]
	}
	sub.ZeroGrad()
	outM := sub.Forward(feats, true)
	lossVal, grad := (&gnn.CrossEntropyLoss{Labels: batchLabels, Mask: batch.SeedMask()}).Eval(outM)
	sub.Backward(grad)
	tr.End()

	// Gradient allreduce across ranks, then replicated optimizer step.
	ps := sub.Params()
	total := 0
	for _, pp := range ps {
		total += len(pp.Grad.Data)
	}
	buf := make([]float64, 0, total+1)
	for _, pp := range ps {
		buf = append(buf, pp.Grad.Data...)
	}
	buf = append(buf, lossVal)
	buf = e.C.Allreduce(buf)
	off := 0
	for _, pp := range ps {
		copy(pp.Grad.Data, buf[off:off+len(pp.Grad.Data)])
		off += len(pp.Grad.Data)
	}
	opt.Step(ps)
	return buf[total] / float64(p)
}

// Params returns the replicated model parameters.
func (e *LocalEngine) Params() []*gnn.Param { return e.model.Params() }

// HaloSize reports the number of remote feature rows pulled per layer — the
// quantity the Ω(nkd/p) bound counts.
func (e *LocalEngine) HaloSize() int { return len(e.halo) }

func idsToFloats(ids []int32) []float64 {
	out := make([]float64, len(ids))
	for i, v := range ids {
		out[i] = float64(v)
	}
	return out
}

func floatsToIDs(fs []float64) []int32 {
	out := make([]int32, len(fs))
	for i, v := range fs {
		out[i] = int32(v)
	}
	return out
}
