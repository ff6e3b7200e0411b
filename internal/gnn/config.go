package gnn

import (
	"fmt"
	"math/rand"
	"strings"

	"agnn/internal/fuse"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// Kind identifies a built-in GNN model.
type Kind int

// Built-in model kinds. VA, AGNN and GAT are the A-GNNs of the paper;
// GCN is the C-GNN special case used for the theory-verification runs.
const (
	VA Kind = iota
	AGNN
	GAT
	GCN
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case VA:
		return "VA"
	case AGNN:
		return "AGNN"
	case GAT:
		return "GAT"
	case GCN:
		return "GCN"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a model name (case-insensitive) to its Kind. The error
// lists exactly the names it accepts.
func ParseKind(s string) (Kind, error) {
	kinds := []Kind{VA, AGNN, GAT, GCN}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		if names[i] = k.String(); strings.EqualFold(s, names[i]) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("gnn: unknown model %q (want one of %s)", s, strings.Join(names, ", "))
}

// Config describes a full GNN model. Dims follow the paper's convention:
// feature dimensionality k may vary per layer but is typically constant.
type Config struct {
	Model     Kind
	Layers    int // L ≥ 1
	InDim     int // k of the input features
	HiddenDim int // k of intermediate layers
	OutDim    int // k of the final layer (e.g. #classes)

	Activation Activation // hidden-layer σ; the final layer emits raw logits
	NegSlope   float64    // GAT LeakyReLU slope (default 0.2)
	SelfLoops  bool       // add self loops (GAT/GCN convention)
	Heads      int        // GAT only: attention heads (≤1 = single-head).
	// With Heads > 1, hidden layers concatenate head outputs (width
	// Heads·HiddenDim) and the final layer averages them (Veličković et
	// al.'s convention).
	Seed int64

	// DType selects the element width of every layer's compiled execution
	// plans. F64 (the zero value) keeps the default double-precision path,
	// bitwise-identical to dtype-unaware builds; F32 runs mixed precision —
	// f64 master weights, float32 plan kernels and buffers — halving the
	// memory traffic of the bandwidth-bound sparse sweeps.
	DType tensor.DType
}

// Defaults fills zero-valued fields with the conventions used throughout
// the paper's experiments: 3 layers, ReLU, slope 0.2.
func (c Config) Defaults() Config {
	if c.Layers == 0 {
		c.Layers = 3
	}
	if c.HiddenDim == 0 {
		c.HiddenDim = c.InDim
	}
	if c.OutDim == 0 {
		c.OutDim = c.HiddenDim
	}
	if c.Activation.F == nil {
		c.Activation = ReLU()
	}
	if c.NegSlope == 0 {
		c.NegSlope = 0.2
	}
	return c
}

// NewLayer constructs one built-in single-head layer of the given kind on
// adjacency a (already preprocessed per the kind's convention). A nil a
// yields an unbound definition for engines that lower the layer's DAG onto
// their own graph.
func NewLayer(kind Kind, a *sparse.CSR, in, out int, act Activation, negSlope float64, rng *rand.Rand) (DAGLayer, error) {
	switch kind {
	case VA:
		return NewVALayer(a, in, out, act, rng), nil
	case AGNN:
		return NewAGNNLayer(a, in, out, act, rng), nil
	case GAT:
		return NewGATLayer(a, in, out, act, negSlope, rng), nil
	case GCN:
		return NewGCNLayer(a, in, out, act, rng), nil
	}
	return nil, fmt.Errorf("gnn: unknown model kind %v", kind)
}

// Prep is the model's adjacency convention: symmetric normalization (self
// loops included) for GCN, self loops for the others when SelfLoops is set.
// A single node applies it to the whole graph (Prep.Apply); a distributed
// engine cuts its block with it (graph.Block).
func (c Config) Prep() graph.Prep {
	switch {
	case c.Model == GCN:
		return graph.PrepGCN
	case c.SelfLoops:
		return graph.PrepSelfLoops
	}
	return graph.PrepNone
}

// New builds a model of cfg.Model on adjacency a, preprocessed per model
// convention (Config.Prep).
func New(cfg Config, a *sparse.CSR) (*Model, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("gnn: adjacency matrix must be square, got %d×%d", a.Rows, a.Cols)
	}
	return NewBound(cfg, cfg.Prep().Apply(a), nil)
}

// NewBound builds cfg's layer stack — the one place that turns a Config into
// layers, so every engine draws the same parameters from cfg.Seed in the same
// order — bound to a exactly as given: a already carries cfg.Prep. With
// a grid, a is this rank's stationary block of it (planned.Grid). A nil a
// yields unbound definitions for an engine that lowers the layers' DAGs onto
// its own graph.
func NewBound(cfg Config, a *sparse.CSR, grid fuse.Grid) (*Model, error) {
	cfg = cfg.Defaults()
	if cfg.Layers < 1 {
		return nil, fmt.Errorf("gnn: need at least one layer, got %d", cfg.Layers)
	}
	if cfg.InDim < 1 || cfg.HiddenDim < 1 || cfg.OutDim < 1 {
		return nil, fmt.Errorf("gnn: non-positive feature dimensions %d/%d/%d", cfg.InDim, cfg.HiddenDim, cfg.OutDim)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := &Model{DType: cfg.DType}
	multiHead := cfg.Model == GAT && cfg.Heads > 1
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.HiddenDim
		if multiHead {
			in = cfg.Heads * cfg.HiddenDim
		}
		if l == 0 {
			in = cfg.InDim
		}
		out := cfg.HiddenDim
		act := cfg.Activation
		last := l == cfg.Layers-1
		if last {
			out = cfg.OutDim
			act = Identity()
		}
		var layer DAGLayer
		if multiHead {
			// Hidden layers concatenate the heads; the final layer averages
			// them into OutDim.
			layer = NewMultiHeadGATLayer(a, in, out, cfg.Heads, !last, act, cfg.NegSlope, rng)
		} else {
			var err error
			if layer, err = NewLayer(cfg.Model, a, in, out, act, cfg.NegSlope, rng); err != nil {
				return nil, err
			}
		}
		c := layer.core()
		c.DType, c.Grid, c.in = cfg.DType, grid, in
		m.Layers = append(m.Layers, layer)
	}
	return m, nil
}
