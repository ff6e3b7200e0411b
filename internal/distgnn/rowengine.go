package distgnn

import (
	"fmt"
	"math"

	"agnn/internal/dist"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
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
}

type rowLayer struct {
	// plan is the compiled per-rank inference plan over the owned row block:
	// the DAG of the layer's definition (shared with the single-node model,
	// itself bound to no adjacency) with SetRowOffset(Lo), so score closures
	// index the full-height (allgathered) factors with global row ids. The
	// engine owns it; Close releases its storage.
	plan *fuse.Plan
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
	part := graph.Partition1D(a.Rows, c.Size())
	lo, hi := part.Range(c.Rank())
	e := &RowEngine{C: c, Part: part, Lo: lo, Hi: hi, cfg: cfg}
	// The owned row block, preprocessed; columns stay global.
	e.aRows = graph.Block(a, cfg.Prep(), lo, 0, hi-lo, a.Cols)

	in := cfg.InDim
	for _, layer := range model.Layers {
		rl := rowLayer{plan: e.compileLayerPlan(layer.(gnn.DAGLayer), in)} // every layer NewBound builds is a DAG layer
		e.layers = append(e.layers, rl)
		_, in = rl.plan.OutputDims()
	}
	return e, nil
}

// Close releases the storage of the engine's plans to the workspace arena.
// The engine must not Forward after Close.
func (e *RowEngine) Close() {
	for i := range e.layers {
		if p := e.layers[i].plan; p != nil {
			p.Release()
		}
		e.layers[i].plan = nil
	}
}

// compileLayerPlan lowers one layer's DAG onto the owned row block and
// compiles it into a reusable inference plan. The row offset shifts local
// pattern rows into global indices, so the virtual score closures read the
// full-height allgathered factors directly.
func (e *RowEngine) compileLayerPlan(def gnn.DAGLayer, in int) *fuse.Plan {
	g := fuse.NewGraph(fmt.Sprintf("row-%v", e.cfg.Model), e.aRows)
	g.SetRowOffset(e.Lo)
	def.DAG(g, g.InputDense("H", e.Part.N, in))
	return g.MustCompile(fuse.Options{SpanPrefix: fmt.Sprintf("row%d.", e.C.Rank()), DType: e.cfg.DType})
}

// Forward runs inference: per layer, one full allgather of the feature
// matrix (the Θ(nk) term), then the plan over the owned rows.
func (e *RowEngine) Forward(hOwned *tensor.Dense) *tensor.Dense {
	h := hOwned
	for _, l := range e.layers {
		var full *tensor.Dense
		if e.cfg.DType == tensor.F32 {
			full = e.allgatherPacked32(h)
		} else {
			full = tensor.NewDenseFrom(e.Part.N, h.Cols, e.C.Allgather(h.Data))
		}
		h = l.plan.Forward(full)
	}
	return h
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
