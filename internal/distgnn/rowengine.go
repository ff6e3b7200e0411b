package distgnn

import (
	"fmt"
	"math"
	"time"

	"agnn/internal/dist"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// RowEngine is the 1D A-stationary layout — the degenerate end of the 1.5D
// family of Section 6.3 with no replication: each rank owns a contiguous
// block of adjacency *rows* and the matching feature rows, and every layer
// begins with a full feature allgather, costing Θ(nk) words per rank
// regardless of p. It exists as the replication-factor ablation of
// DESIGN.md: comparing its measured volume against GridEngine's
// O(nk/√p) demonstrates why the paper adopts the 2D distribution.
// Inference only; training belongs to the 2D engine.
type RowEngine struct {
	C      *dist.Comm
	Part   graph.Partition
	Lo, Hi int

	aRows  *sparse.CSR // owned rows over all n columns
	cfg    gnn.Config
	layers []rowLayer

	// Overlapped execution (EnableOverlap): the per-layer plans partitioned
	// by chunk-arrival step, plus the shared arrival schedule mirroring the
	// ring allgather's deterministic chunk order.
	overlap bool
	avail   []fuse.RowRange
}

type rowLayer struct {
	// plan is the compiled per-rank inference plan over the owned row block:
	// the DAG of the layer's definition (shared with the single-node model,
	// itself bound to no adjacency) with SetRowOffset(Lo), so score closures
	// index the full-height (allgathered) factors with global row ids. It is
	// leased from the process-wide plan cache (fuse.Shared) for the engine's
	// lifetime; Close returns the leases.
	lease fuse.Lease
	plan  *fuse.Plan
	// pp is the arrival-gated partition of plan, present when overlap is on.
	pp *fuse.PartitionedPlan
}

// NewRowEngine builds the 1D engine (SPMD; adjacency replicated at setup
// like the other engines).
func NewRowEngine(c *dist.Comm, a *sparse.CSR, cfg gnn.Config) (*RowEngine, error) {
	cfg = cfg.Defaults()
	// The layers are gnn.New's, left unbound: the engine lowers each one's
	// DAG onto its own row block below.
	model, err := gnn.NewBound(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	a = cfg.Preprocess(a)
	part := graph.Partition1D(a.Rows, c.Size())
	lo, hi := part.Range(c.Rank())
	e := &RowEngine{C: c, Part: part, Lo: lo, Hi: hi, cfg: cfg}

	// Slice the owned row block (columns stay global).
	coo := sparse.NewCOO(hi-lo, a.Cols, int(a.RowPtr[hi]-a.RowPtr[lo]))
	for i := lo; i < hi; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			coo.AppendVal(int32(i-lo), a.Col[p], a.Val[p])
		}
	}
	e.aRows = sparse.FromCOO(coo)

	in := cfg.InDim
	for l, layer := range model.Layers {
		def := layer.(gnn.DAGLayer) // every layer NewBound builds is one
		var rl rowLayer
		// The signature adds what the plan bakes in beyond the definition:
		// rank and row offset (SetRowOffset(Lo) in the score closures) and
		// the full height.
		sig := fmt.Sprintf("row|l%d|rank=%d|off=%d|n=%d|%s", l, c.Rank(), lo, part.N, def.Signature(false))
		rl.lease = fuse.Shared.Get(fuse.KeyFor(e.aRows, in, cfg.DType, sig),
			func(ws *tensor.Arena) *fuse.Plan { return e.compileLayerPlan(def, in, ws) })
		rl.plan = rl.lease.Plan()
		e.layers = append(e.layers, rl)
		_, in = rl.plan.OutputDims()
	}
	return e, nil
}

// Close releases the engine's plan leases back to the shared cache, where
// their workspaces become evictable. The engine must not Forward after
// Close.
func (e *RowEngine) Close() {
	for i := range e.layers {
		e.layers[i].lease.Release()
		e.layers[i].plan = nil
		e.layers[i].pp = nil
	}
}

// compileLayerPlan lowers one layer's DAG onto the owned row block and
// compiles it into a reusable inference plan. The row offset shifts local
// pattern rows into global indices, so the virtual score closures read the
// full-height allgathered factors directly.
func (e *RowEngine) compileLayerPlan(def gnn.DAGLayer, in int, ws *tensor.Arena) *fuse.Plan {
	g := fuse.NewGraph(fmt.Sprintf("row-%v", e.cfg.Model), e.aRows)
	g.SetRowOffset(e.Lo)
	def.DAG(g, g.InputDense("H", e.Part.N, in))
	// NoAttnFuse: the fused attention inference op is row-indivisible, and
	// EnableOverlap must be able to Partition every plan it already compiled.
	return g.MustCompile(fuse.Options{SpanPrefix: fmt.Sprintf("row%d.", e.C.Rank()),
		Workspace: ws, DType: e.cfg.DType, NoAttnFuse: true})
}

// EnableOverlap switches Forward to overlapped execution: the feature
// allgather runs chunked (dist.AllgatherChunks) while each layer's
// partitioned plan drains arrival-gated fragments — rank-resident rows
// compute immediately, halo-dependent rows as their chunks land. A no-op
// at p=1 (there is nothing to hide). Output stays bitwise-identical to the
// sequential path: fragments execute the exact per-row arithmetic of the
// plan's sweeps, just regrouped (see fuse.Partition).
func (e *RowEngine) EnableOverlap() error {
	if e.overlap || e.C.Size() == 1 {
		return nil
	}
	if e.cfg.DType == tensor.F32 {
		return fmt.Errorf("distgnn: overlap requires f64 plans (f32 plans cast at the plan boundary and cannot be fragment-partitioned); run f32 on the sequential path or set DType: tensor.F64")
	}
	g := e.C.Size()
	me := e.C.Rank()
	avail := make([]fuse.RowRange, g)
	for t := 0; t < g; t++ {
		src := ((me-t)%g + g) % g // ring arrival order: me, me-1, …
		lo, hi := e.Part.Range(src)
		avail[t] = fuse.RowRange{Lo: lo, Hi: hi}
	}
	for i := range e.layers {
		pp, err := e.layers[i].plan.Partition(avail)
		if err != nil {
			return fmt.Errorf("distgnn: overlap unavailable for layer %d: %w", i, err)
		}
		e.layers[i].pp = pp
	}
	e.avail = avail
	e.overlap = true
	return nil
}

// Overlapped reports whether overlapped execution is active.
func (e *RowEngine) Overlapped() bool { return e.overlap }

// Forward runs inference: per layer, one full allgather of the feature
// matrix (the Θ(nk) term), then computation on the owned rows — strictly
// after the gather on the sequential path, interleaved with it when
// EnableOverlap is active. The error is non-nil when a rank failure aborted
// a chunked gather mid-layer (it wraps dist.ErrRankFailed); fault-free runs
// never fail.
func (e *RowEngine) Forward(hOwned *tensor.Dense) (*tensor.Dense, error) {
	h := hOwned
	for _, l := range e.layers {
		if e.overlap {
			var err error
			if h, err = e.layerForwardOverlapped(l, h); err != nil {
				return nil, err
			}
			continue
		}
		var full *tensor.Dense
		if e.cfg.DType == tensor.F32 {
			full = e.allgatherPacked32(h)
		} else {
			full = tensor.NewDenseFrom(e.Part.N, h.Cols, e.C.Allgather(h.Data))
		}
		h = l.plan.Forward(full)
	}
	return h, nil
}

// allgatherPacked32 is the f32 wire: each rank rounds its owned feature
// rows to float32 and packs the pair (2t, 2t+1) bitwise into one float64
// word before the allgather, halving the measured volume of the Θ(nk) term
// — the same 2× the f32 plans win on memory traffic, now on the network.
// The rounding is exactly the cast the receiving f32 plan would apply at
// its input boundary anyway, so the packed wire changes no kernel input
// bit. The collective only copies words (no arithmetic), so the packed NaN
// payloads survive the ring intact.
func (e *RowEngine) allgatherPacked32(h *tensor.Dense) *tensor.Dense {
	k := h.Cols
	packed := packWords32(h.Data)
	words := e.C.Allgather(packed)
	full := tensor.NewDense(e.Part.N, k)
	off := 0 // word offset into the gathered buffer
	for r := 0; r < e.C.Size(); r++ {
		lo, hi := e.Part.Range(r)
		cnt := (hi - lo) * k
		nw := (cnt + 1) / 2
		unpackWords32(full.Data[lo*k:lo*k+cnt], words[off:off+nw])
		off += nw
	}
	return full
}

// packWords32 rounds xs to float32 and packs consecutive pairs into float64
// bit patterns (low 32 bits first; odd tails pad with zero bits).
func packWords32(xs []float64) []float64 {
	out := make([]float64, (len(xs)+1)/2)
	for t := range out {
		bits := uint64(math.Float32bits(float32(xs[2*t])))
		if 2*t+1 < len(xs) {
			bits |= uint64(math.Float32bits(float32(xs[2*t+1]))) << 32
		}
		out[t] = math.Float64frombits(bits)
	}
	return out
}

// unpackWords32 widens the packed float32 pairs back into dst.
func unpackWords32(dst []float64, words []float64) {
	for t, w := range words {
		bits := math.Float64bits(w)
		dst[2*t] = float64(math.Float32frombits(uint32(bits)))
		if 2*t+1 < len(dst) {
			dst[2*t+1] = float64(math.Float32frombits(uint32(bits >> 32)))
		}
	}
}

// layerForwardOverlapped starts the chunked allgather of the layer input
// and runs the partitioned plan's step t as soon as chunk t has landed.
// The time this rank spends computing fragments while the gather is still
// in flight is the hidden latency; what remains on the critical path is
// only the stall time (blocked on chunk receives), recorded against the
// agnn_overlap_hidden_seconds gauge.
//
// Chunk notifications may arrive out of schedule order under an injected
// reorder fault; arrivals ahead of schedule are buffered until their step
// comes up (the underlying data is already in place), so the plan's
// arithmetic order — and therefore its bitwise output — is unaffected.
func (e *RowEngine) layerForwardOverlapped(l rowLayer, h *tensor.Dense) (*tensor.Dense, error) {
	k := h.Cols
	g := e.C.Size()
	lens := make([]int, g)
	for r := 0; r < g; r++ {
		lo, hi := e.Part.Range(r)
		lens[r] = (hi - lo) * k
	}
	start := time.Now()
	cg, err := e.C.AllgatherChunks(h.Data, lens)
	if err != nil {
		return nil, fmt.Errorf("distgnn: layer gather: %w", err)
	}
	full := tensor.NewDenseFrom(e.Part.N, k, cg.Out())
	pp := l.pp
	pp.Bind(full)

	var stall time.Duration
	var lastArrival time.Time
	chunks := cg.Chunks()
	pending := make(map[int]bool) // early arrivals, keyed by schedule step
	stepOf := func(ch dist.Chunk) (int, error) {
		for t := range e.avail {
			if want := e.avail[t]; ch.Lo == want.Lo*k && ch.Hi == want.Hi*k {
				return t, nil
			}
		}
		return 0, fmt.Errorf("distgnn: chunk covers words [%d,%d), not in the arrival schedule", ch.Lo, ch.Hi)
	}
	for t := 0; t < pp.Steps(); t++ {
		for !pending[t] {
			w0 := time.Now()
			ch, ok := <-chunks
			stall += time.Since(w0)
			if !ok {
				if err := cg.Err(); err != nil {
					return nil, fmt.Errorf("distgnn: chunked gather aborted: %w", err)
				}
				return nil, fmt.Errorf("distgnn: chunked gather ended after %d of %d chunks", t, pp.Steps())
			}
			lastArrival = time.Now()
			s, err := stepOf(ch)
			if err != nil {
				return nil, err
			}
			pending[s] = true
		}
		delete(pending, t)
		sp := e.C.StartSpan("overlap.step")
		pp.RunStep(t)
		sp.End()
	}
	for range chunks { // consume the close
	}
	if err := cg.Err(); err != nil {
		return nil, fmt.Errorf("distgnn: chunked gather aborted: %w", err)
	}
	hidden := lastArrival.Sub(start).Seconds() - stall.Seconds()
	if hidden > 0 {
		metrics.OverlapHiddenSeconds.Add(hidden)
	}
	metrics.OverlapChunksTotal.Add(int64(pp.Steps()))
	metrics.OverlapLocalFraction.Set(pp.LocalFraction())
	return pp.Output(), nil
}

// GatherOutput assembles the full output on rank 0 (test helper).
func (e *RowEngine) GatherOutput(out *tensor.Dense) *tensor.Dense {
	parts := e.C.Gatherv(out.Data, 0)
	if e.C.Rank() != 0 {
		return nil
	}
	full := tensor.NewDense(e.Part.N, out.Cols)
	row := 0
	for r := 0; r < e.C.Size(); r++ {
		for off := 0; off+out.Cols <= len(parts[r]); off += out.Cols {
			copy(full.Row(row), parts[r][off:off+out.Cols])
			row++
		}
	}
	return full
}
